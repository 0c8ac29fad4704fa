"""Built-in scenario presets: the 14 data-generating scenarios.

Each preset is a scenario config named ``n<size>_<procedure>_<trend>``,
built by :func:`build_preset_dict`, covering sample sizes 49/98/490
under random allocation and permuted blocks (plus complete
randomization at 490), with and without the enrollment-time trend.
Top-dose response rates are 0.8, 0.61 and 0.364 respectively so the
scenarios target comparable planned power; the placebo rate is 0.2
throughout.
"""
from __future__ import annotations

from ..simulate import ScenarioConfig, scenario_from_dict

_SIZES = {49: 0.8, 98: 0.61, 490: 0.364}
_RATIO = (1, 2, 2, 2)
_DOSES = (0.0, 10.0, 25.0, 100.0)


def preset_names() -> list[str]:
    names = []
    for n in _SIZES:
        procs = ["ra", "pbd"] + (["cr"] if n == 490 else [])
        for proc in procs:
            for trend in ("notrend", "trend"):
                names.append(f"n{n}_{proc}_{trend}")
    return names


def build_preset_dict(name: str) -> dict:
    """Construct a preset config by name."""
    parts = name.split("_")
    if len(parts) != 3 or not parts[0].startswith("n"):
        raise KeyError(f"unknown preset {name!r}")
    n = int(parts[0][1:])
    proc, trend = parts[1], parts[2]
    if n not in _SIZES or proc not in ("ra", "pbd", "cr") or trend not in ("notrend", "trend"):
        raise KeyError(f"unknown preset {name!r}")
    if proc == "cr" and n != 490:
        raise KeyError(f"complete randomization is only preset at n=490, not {name!r}")
    scale = n // sum(_RATIO)
    d: dict = {
        "name": name,
        "doses": list(_DOSES),
        "procedure": proc,
        "n": n,
        "p0": 0.2,
        "pk": _SIZES[n],
        "emax_ed50": 10.0,
        "covariate_coef": 0.6,
        "covariate_in_analysis": True,
        "time_trend": "linear" if trend == "trend" else "none",
        "alpha": 0.10,
        "n_sim": 10_000,
        "n_rand": 1_000,
        "seed": 1,
        # The population test uses the finite-sample multivariate-t
        # reference with residual degrees of freedom (n minus the four
        # arm intercepts and one covariate slope).
        "methods": [
            {"id": "population", "df": n - 5},
            "glm_mle", "residual_mle", "glm_firth", "residual_firth",
        ],
    }
    if proc == "ra":
        d["targets"] = [r * scale for r in _RATIO]
    elif proc == "pbd":
        d["block"] = list(_RATIO)
    else:
        d["weights"] = list(_RATIO)
    return d


def load_preset(name: str) -> ScenarioConfig:
    """The named preset as a scenario; an unknown name raises ``KeyError``."""
    return scenario_from_dict(build_preset_dict(name))
