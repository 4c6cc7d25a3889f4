"""Run configuration: an INI-style key-value file mirroring the problem,
grid, flow, and scan parameters.

Potentials come either from the built-in family v0 * (1 + r^2)^(-s) or from
a CSV of (r, value) rows with power-law tail metadata.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
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
    convention: str = "A3"
    tol_scale: float = 1.0
    trend_fraction: float = 0.1

    def build_grid(self) -> RadialGrid:
        return make_grid(self.N, self.grid_m, self.r_max, self.stretch)

    def build_problem(self, grid: RadialGrid) -> Problem:
        return Problem(
            N=self.N, mu1=self.mu1, mu2=self.mu2, beta=self.beta,
            lam1=self.lam1, lam2=self.lam2,
            V1=self.v1.build(grid), V2=self.v2.build(grid),
        )


_FLOW_KEYS = {
    "step_size": float,
    "max_iterations": int,
    "residual_tolerance": float,
    "recenter_every": int,
    "check_every": int,
    "start": str,
}

_MAIN_KEYS = {
    "n": ("N", int),
    "mu1": ("mu1", float),
    "mu2": ("mu2", float),
    "beta": ("beta", float),
    "lambda1": ("lam1", float),
    "lambda2": ("lam2", float),
}

_GRID_KEYS = {
    "m": ("grid_m", int),
    "r_max": ("r_max", float),
    "stretch": ("stretch", float),
    "profile_m": ("profile_m", int),
}

_REPORT_KEYS = {
    "seed": ("seed", int),
    "convention": ("convention", str),
    "tol_scale": ("tol_scale", float),
    "trend_fraction": ("trend_fraction", float),
    "support_fraction": ("support_fraction", float),
    "moll_cells": ("moll_cells", int),
    "c_star_margin": ("c_star_margin", float),
}


def _read(sec, key, cast):
    """sec[key] cast to its type; a value that does not cast is a config error."""
    try:
        return cast(sec[key])
    except (ValueError, configparser.Error) as exc:
        raise ParameterError(f"[{sec.name}] {key}: cannot read {sec.get(key, raw=True)!r} "
                             f"as {cast.__name__}") from exc


def _potential_from_section(sec, prefix) -> PotentialSpec:
    kw = {}
    for key, cast in (("family", str), ("v0", float), ("s", float), ("path", str),
                      ("tail_exponent", float), ("tail_coeff", float)):
        k = f"{prefix}.{key}"
        if k in sec:
            kw[key] = _read(sec, k, cast)
    return PotentialSpec(**kw)


def load_config(path: str | Path | None) -> RunConfig:
    """Parse the run configuration; missing file raises FileNotFoundError."""
    cfg = RunConfig()
    if path is None:
        return cfg
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(p.read_text(encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ParameterError(f"malformed config {p}: {exc}") from exc

    kw = {}
    if parser.has_section("problem"):
        sec = parser["problem"]
        for key, (attr, cast) in _MAIN_KEYS.items():
            if key in sec:
                kw[attr] = _read(sec, key, cast)
        kw["v1"] = _potential_from_section(sec, "v1")
        kw["v2"] = _potential_from_section(sec, "v2")
    if parser.has_section("grid"):
        sec = parser["grid"]
        for key, (attr, cast) in _GRID_KEYS.items():
            if key in sec:
                kw[attr] = _read(sec, key, cast)
    if parser.has_section("flow"):
        sec = parser["flow"]
        fkw = {k: _read(sec, k, c) for k, c in _FLOW_KEYS.items() if k in sec}
        kw["flow"] = FlowConfig(**fkw)
    if parser.has_section("report"):
        sec = parser["report"]
        for key, (attr, cast) in _REPORT_KEYS.items():
            if key in sec:
                kw[attr] = _read(sec, key, cast)
    out = replace(cfg, **kw)
    if out.convention not in ("A3", "C3"):
        raise ParameterError(f"convention must be A3 or C3, got {out.convention}")
    if not math.isfinite(out.beta):
        raise ParameterError("beta must be finite")
    # the paper's shifts satisfy lambda1 + lambda2 != 0; Problem itself accepts
    # zero shifts, which the limit problems use
    if out.lam1 + out.lam2 == 0.0:
        raise ParameterError("[problem] lambda1/lambda2: lambda1 + lambda2 must be nonzero")
    # the mollifier spans the outermost moll_cells cells of the profile grid
    profile_cells = out.profile_m // NODES_PER_CELL
    if not 1 <= out.moll_cells < profile_cells:
        raise ParameterError(f"[report] moll_cells must lie in [1, {profile_cells - 1}] "
                             f"for profile_m = {out.profile_m}, got {out.moll_cells}")
    return out
