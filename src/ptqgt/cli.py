"""Command-line front end.

Subcommands: scan (phase-diagram CSV + gnuplot script), critical
(analytic critical set), qgt (tensor report for a model file), berry /
evolve (loop-phase demos), verify (self-check suite).

Exit codes: 0 success, 1 usage or config error, 2 degenerate-input
signal, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import geometry, verify, xy_chain
from .biortho import biortho_eig
from .dynamics import PathSpec, adiabatic_phase
from .errors import DefectiveMatrix, Degenerate, GaplessPoint, ParseError, PtqgtError
from .families import BUNDLED_MODELS, load_bundled_model
from .geometry import LoopSpec, berry_phase_loop, classify_interval
from .modelfile import load_model
from .scan import ScanConfig, run_scan, write_csv
from .xy_chain import XYParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_family(name_or_path: str):
    """A bundled model's name, or a path to a .model file."""
    if name_or_path in BUNDLED_MODELS:
        return load_bundled_model(name_or_path)
    return load_model(name_or_path)


def _point(text: str) -> np.ndarray:
    try:
        point = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        point = None
    if point is None or not np.all(np.isfinite(point)):
        raise argparse.ArgumentTypeError(
            f"invalid point {text!r}: expected comma-separated finite numbers")
    return point


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _vertex_count(text: str) -> int:
    value = _positive_int(text)
    if value < 3:  # plus the closing vertex: the 4 a LoopSpec needs
        raise argparse.ArgumentTypeError(f"expected at least 3 vertices, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


class _UsageError(Exception):
    """A command-line value that does not fit the model, or a bad scan
    config; exit code 1."""


def _model_at(args, point: np.ndarray, min_params: int = 1):
    """The model ``args.model``, and ``point`` checked against it."""
    family = _load_family(args.model)
    if family.dim_param < min_params:
        raise _UsageError(f"this command needs a model with at least {min_params} "
                          f"parameters, got {family.dim_param}")
    if point.shape[0] != family.dim_param:
        raise _UsageError(f"model expects {family.dim_param} parameters, got {point.shape[0]}")
    if not 0 <= args.level < family.dim_hilbert:
        raise _UsageError(f"level must lie in 0..{family.dim_hilbert - 1}, got {args.level}")
    return family, point


# ---------------------------------------------------------------- scan


# A config file names its CSV too; the CLI, not the scan, owns that path.
_CONFIG_KEYS = {f.name for f in dataclasses.fields(ScanConfig)} | {"out_path"}


def _scan_config(path: str) -> tuple[ScanConfig, str]:
    """The scan's config and the CSV path, from the JSON file ``path``."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("the config must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    out = raw.pop("out_path", "scan.csv")
    if not isinstance(out, str) or not out:  # open() takes True or an int as a file descriptor
        raise ValueError(f"out_path must be a non-empty string, got {out!r}")
    # n_quad and workers, when given, go to ScanConfig as they are,
    # so its defaults and its integer checks are the only ones.
    raw = dict(raw, params=XYParams(**raw.get("params", {})),
               h_range=tuple(raw["h_range"]), eta_range=tuple(raw["eta_range"]))
    return ScanConfig(**raw), out


def cmd_scan(args) -> int:
    try:
        config, out = _scan_config(args.config)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise _UsageError(f"config error: {exc}") from exc
    result = run_scan(config)
    write_csv(result, out)
    n_ok = sum(r.status == "ok" for r in result.records)
    n_deg = sum(r.status == "degenerate" for r in result.records)
    n_br = sum(r.status == "broken" for r in result.records)
    print(f"wrote {out} ({n_ok} ok, {n_deg} degenerate, {n_br} broken)")
    print(f"plot script: {out}.gp")
    return EXIT_OK


# ------------------------------------------------------------ critical


def cmd_critical(args) -> int:
    params = XYParams(J=args.J, Js=args.Js, Gamma=args.Gamma, Gammas=args.Gammas)
    crit = xy_chain.critical_set(params)
    payload = {
        "case": params.case,
        "r_c1": crit.r_c1,
        "r_c2": crit.r_c2,
        "eta_c": crit.eta_c,
        "description": crit.qpt_description,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"case:  {params.case}")
        print(f"r_c1:  {crit.r_c1!r}")
        print(f"r_c2:  {crit.r_c2!r}")
        print(f"eta_c: {crit.eta_c!r}")
        print(crit.qpt_description)
    return EXIT_OK


# ----------------------------------------------------------------- qgt


def _fmt_matrix(m) -> str:
    return np.array2string(np.asarray(m), precision=8, suppress_small=True)


def cmd_qgt(args) -> int:
    family, lam = _model_at(args, args.lam)
    q = geometry.qgt(family, lam, n=args.level).q
    g = q.real
    eig = biortho_eig(family(lam))
    print(f"lambda = {lam.tolist()}, level = {args.level}")
    print(f"energies: {np.round(eig.energies, 10).tolist()}")
    print(f"spectrum: {'real (unbroken)' if eig.unbroken else 'complex (broken)'}")
    print("Q =")
    print(_fmt_matrix(q))
    print("Omega (Berry curvature, Im Q) =")
    print(_fmt_matrix(q.imag))
    print("g (metric, Re Q) =")
    print(_fmt_matrix(g))
    print(f"eig(g) = {np.round(np.linalg.eigvalsh(g), 10).tolist()}")
    for mu in range(family.dim_param):
        d = np.zeros(family.dim_param)
        d[mu] = 1.0
        ds2, kind = classify_interval(g, d)
        print(f"unit e_{mu + 1}: ds^2 = {ds2:+.8e}  ({kind})")
    return EXIT_OK


# --------------------------------------------------------- berry/evolve


def _circle_path(center: np.ndarray, radius: float, tau: float) -> PathSpec:
    """Circle in the plane of the first two parameters."""

    def curve(t):
        ang = 2.0 * np.pi * t / tau
        out = center.copy()
        out[0] += radius * np.cos(ang)
        out[1] += radius * np.sin(ang)
        return out

    return PathSpec(curve=curve, duration=tau, closed=True)


def cmd_berry(args) -> int:
    family, center = _model_at(args, args.center, min_params=2)
    verts = _circle_path(center, args.radius, 1.0).at(np.linspace(0.0, 1.0, args.vertices + 1))
    verts[-1] = verts[0]
    gamma = berry_phase_loop(family, LoopSpec(vertices=verts, level=args.level))
    print(f"loop: circle center={center.tolist()} radius={args.radius} "
          f"vertices={args.vertices} level={args.level}")
    print(f"gamma_line = {gamma:+.10f}")
    return EXIT_OK


def cmd_evolve(args) -> int:
    family, center = _model_at(args, args.center, min_params=2)
    path = _circle_path(center, args.radius, args.tau)
    out = adiabatic_phase(family, path, n=args.level, n_steps=args.steps)
    result = out["result"]
    print(f"tau = {args.tau}, steps = {args.steps}, level = {args.level}")
    print(f"gamma_sim  = {out['gamma_sim']:+.10f}")
    print(f"gamma_line = {out['gamma_line']:+.10f}")
    print(f"|diff|     = {abs(out['gamma_sim'] - out['gamma_line']):.3e}")
    print(f"beta       = {out['beta']:+.10f}")
    drift = float(np.max(np.abs(result.w_norms - result.w_norms[0])))
    print(f"w-norm drift = {drift:.3e}")
    if args.out:
        _write_trajectory(result, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _write_trajectory(result, path: str) -> None:
    n = result.states.shape[1]
    cols = ["t"]
    for i in range(n):
        cols += [f"Re psi_{i + 1}", f"Im psi_{i + 1}"]
    cols.append("w_norm")
    lines = [",".join(cols)]
    for t, psi, wn in zip(result.times, result.states, result.w_norms):
        row = [repr(float(t))]
        for i in range(n):
            row += [repr(float(psi[i].real)), repr(float(psi[i].imag))]
        row.append(repr(float(wn)))
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# -------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    results = verify.run_suite(suite=args.suite, seed=args.seed)
    any_fail = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:32s} residual={r.residual:.3e}  tol={r.tol:.1e}")
        any_fail = any_fail or not r.passed
    return EXIT_NUMERICAL if any_fail else EXIT_OK


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ptqgt", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="metric-intensity phase-diagram scan")
    p.add_argument("--config", required=True, help="JSON config file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("critical", help="analytic critical fields")
    p.add_argument("--J", type=_positive_float, default=1.0)
    p.add_argument("--Js", type=_positive_float, default=0.5)
    p.add_argument("--Gamma", type=_positive_float, default=1.0 / 3.0)
    p.add_argument("--Gammas", type=_positive_float, default=1.0 / 6.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("qgt", help="geometric-tensor report for a model")
    p.add_argument("model", help="bundled model name or .model file path")
    p.add_argument("--lam", required=True, type=_point, help="comma-separated point")
    p.add_argument("--level", type=int, default=0)
    p.set_defaults(func=cmd_qgt)

    p = sub.add_parser("berry", help="discrete loop Berry phase")
    p.add_argument("model")
    p.add_argument("--center", required=True, type=_point)
    p.add_argument("--radius", type=_finite_float, default=0.05)
    p.add_argument("--vertices", type=_vertex_count, default=256)
    p.add_argument("--level", type=int, default=0)
    p.set_defaults(func=cmd_berry)

    p = sub.add_parser("evolve", help="adiabatic transport around a loop")
    p.add_argument("model")
    p.add_argument("--center", required=True, type=_point)
    p.add_argument("--radius", type=_finite_float, default=0.05)
    p.add_argument("--tau", type=_positive_float, default=100.0)
    p.add_argument("--steps", type=_positive_int, default=6000)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify", help="self-verification suite")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up by name at call time, not bound when the parser was
        # built, so a cmd_* replaced on this module is the one that runs.
        return globals()[args.func.__name__](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (Degenerate, GaplessPoint, DefectiveMatrix) as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PtqgtError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
