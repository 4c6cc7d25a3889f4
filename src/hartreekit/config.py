"""Run configuration: an INI-style key-value file mirroring the problem,
grid, flow, and scan parameters.

Potentials come either from the built-in family v0 * (1 + r^2)^(-s) or from
a CSV of (r, value) rows with power-law tail metadata.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .energy import Problem
from .errors import ParameterError
from .flow import FlowConfig
from .grids import NODES_PER_CELL, RadialFn, RadialGrid, from_callable, make_grid


@dataclass(frozen=True)
class PotentialSpec:
    family: str = "inverse_square"   # inverse_square | csv | none
    v0: float = 0.1
    s: float = 2.0
    path: str = ""
    tail_exponent: float = 4.0
    tail_coeff: float = 0.0

    def build(self, grid: RadialGrid) -> RadialFn | None:
        if self.family == "none" or (self.family == "inverse_square" and self.v0 == 0.0):
            return None
        if self.family == "inverse_square":
            v0, s = self.v0, self.s
            return from_callable(grid, lambda r: v0 * (1.0 + r**2) ** (-s),
                                 p_tail=2.0 * s, c_tail=v0)
        if self.family == "csv":
            p = Path(self.path)
            if not p.exists():
                raise FileNotFoundError(f"potential file not found: {p}")
            data = np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
            if data.shape[1] < 2:
                raise ParameterError(f"potential file {p} must have (r, value) columns")
            r_in, v_in = data[:, 0], data[:, 1]
            vals = np.interp(grid.r, r_in, v_in)
            beyond = grid.r > r_in[-1]
            if beyond.any():
                vals[beyond] = self.tail_coeff * grid.r[beyond] ** (-self.tail_exponent)
            return RadialFn(grid, vals, p_tail=self.tail_exponent, c_tail=self.tail_coeff)
        raise ParameterError(f"unknown potential family: {self.family}")


@dataclass(frozen=True)
class RunConfig:
    N: int = 5
    mu1: float = 1.0
    mu2: float = 2.0
    beta: float = 3.0
    lam1: float = 0.1
    lam2: float = 0.1
    v1: PotentialSpec = field(default_factory=PotentialSpec)
    v2: PotentialSpec = field(default_factory=PotentialSpec)
    grid_m: int = 400
    r_max: float = 40.0
    stretch: float = 1.02
    profile_m: int = 320
    support_fraction: float = 0.995
    moll_cells: int = 5
    c_star_margin: float = 0.02
    flow: FlowConfig = field(default_factory=FlowConfig)
    seed: int = 1234

    def __post_init__(self):
        # the paper's shifts satisfy lambda1 + lambda2 != 0; Problem itself accepts
        # zero shifts, which the limit problems use
        if self.lam1 + self.lam2 == 0.0:
            raise ParameterError("[problem] lambda1/lambda2: lambda1 + lambda2 must be nonzero")
        # the mollifier spans the outermost moll_cells cells of the profile grid
        profile_cells = self.profile_m // NODES_PER_CELL
        if not 1 <= self.moll_cells < profile_cells:
            raise ParameterError(f"[report] moll_cells must lie in [1, {profile_cells - 1}] "
                                 f"for profile_m = {self.profile_m}, got {self.moll_cells}")
        # c_star_lower = (1 + margin) c_inf must sit above the limit level
        if not self.c_star_margin > 0.0:
            raise ParameterError(f"[report] c_star_margin must be > 0, got {self.c_star_margin}")
        if not 0.0 < self.support_fraction < 1.0:
            raise ParameterError("[report] support_fraction must lie in (0, 1), "
                                 f"got {self.support_fraction}")
        # numpy's generators take only non-negative seeds
        if self.seed < 0:
            raise ParameterError(f"[report] seed must be >= 0, got {self.seed}")

    def build_grid(self) -> RadialGrid:
        return make_grid(self.N, self.grid_m, self.r_max, self.stretch)

    def build_problem(self, grid: RadialGrid) -> Problem:
        return Problem(
            N=self.N, mu1=self.mu1, mu2=self.mu2, beta=self.beta,
            lam1=self.lam1, lam2=self.lam2,
            V1=self.v1.build(grid), V2=self.v2.build(grid),
        )


# section -> key -> (field, cast): every key a config file may set; anything
# else is a config error.  A dotted field fills a nested spec: "v1.s" sets
# RunConfig.v1.s and "flow.start" RunConfig.flow.start.
_KEYS = {
    "problem": {
        "n": ("N", int),
        "mu1": ("mu1", float),
        "mu2": ("mu2", float),
        "beta": ("beta", float),
        "lambda1": ("lam1", float),
        "lambda2": ("lam2", float),
        **{f"{v}.{k}": (f"{v}.{k}", cast) for v in ("v1", "v2") for k, cast in (
            ("family", str), ("v0", float), ("s", float), ("path", str),
            ("tail_exponent", float), ("tail_coeff", float))},
    },
    "grid": {
        "m": ("grid_m", int),
        "r_max": ("r_max", float),
        "stretch": ("stretch", float),
        "profile_m": ("profile_m", int),
    },
    "flow": {k: (f"flow.{k}", cast) for k, cast in (
        ("step_size", float), ("max_iterations", int), ("residual_tolerance", float),
        ("recenter_every", int), ("check_every", int), ("start", str))},
    "report": {
        "seed": ("seed", int),
        "support_fraction": ("support_fraction", float),
        "moll_cells": ("moll_cells", int),
        "c_star_margin": ("c_star_margin", float),
    },
}


def _read(sec, key, cast):
    """sec[key] cast to its type; a value that does not cast, or a float that
    is not finite, is a config error."""
    try:
        value = cast(sec[key])
    except (ValueError, configparser.Error) as exc:
        raise ParameterError(f"[{sec.name}] {key}: cannot read {sec.get(key, raw=True)!r} "
                             f"as {cast.__name__}") from exc
    if cast is float and not math.isfinite(value):
        raise ParameterError(f"[{sec.name}] {key}: {value} is not a finite number")
    return value


def load_config(path: str | Path | None) -> RunConfig:
    """Parse the run configuration; missing file raises FileNotFoundError."""
    if path is None:
        return RunConfig()
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(p.read_text(encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ParameterError(f"malformed config {p}: {exc}") from exc
    kw = {"": {}, "v1": {}, "v2": {}, "flow": {}}
    for name in parser.sections():
        if name not in _KEYS:
            raise ParameterError(f"[{name}]: unknown section; known: {sorted(_KEYS)}")
        sec = parser[name]
        for key in sec:
            if key not in _KEYS[name]:
                raise ParameterError(f"[{name}] {key}: unknown key; "
                                     f"known: {sorted(_KEYS[name])}")
            dotted, cast = _KEYS[name][key]
            part, _, attr = dotted.rpartition(".")
            kw[part][attr] = _read(sec, key, cast)
    return RunConfig(**kw[""], v1=PotentialSpec(**kw["v1"]), v2=PotentialSpec(**kw["v2"]),
                     flow=FlowConfig(**kw["flow"]))
