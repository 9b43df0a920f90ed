"""Per-stage timings of ptqgt at the stack shapes its benchmark workloads run.

    python3 tools/stages.py [--rounds 9] [--calls 200]

Eight shapes, each a stack that one request or one block solves:

- ``stencil-5``: the 2d+1 stencil of ``qgt`` on the bundled
  ``pt_two_level`` model (d = 2), 5 complex 2x2 matrices;
- ``stencil-7``: the same on the bundled ``spin_half`` model (d = 3), 7;
- ``loop-64``: a 64-vertex Berry loop on the bundled ``pt_two_level``
  model, 64;
- ``flux-512``: one ``curvature_flux`` block of the bundled
  ``pt_two_level`` model at resolution 64, 512;
- ``intensity-65``: one ``metric_intensity`` point (ANISO, ``n_quad`` 65),
  65 real 4x4 blocks;
- ``chunk-455``: a seven-point scan chunk of the same, 455 real 4x4 blocks;
- ``transport-512``: one 256-step ``evolve`` chunk of a pt_loop transport
  (the bundled ``pt_two_level`` model on a circle of radius 0.05, 6000
  steps over 100 time units), 512 complex 2x2 nodes;
- ``generators-4``: one ``o_operators`` call on ``dk_family(ANISO, 0.7)``
  at (0.5, 0.3), one complex 4x4 matrix: the one route at N >= 3 through
  the gauge diagonal and ``Psi M Phi^dag``.

At each shape the stages are, where they apply:

- ``family``: evaluating the stack of matrices;
- ``deriv``: on the flux block, the two ``family.deriv`` calls, one per
  axis, that ``curvature_flux`` makes on it;
- ``eig``: ``numpy.linalg.eig`` on it alone, the LAPACK floor;
- ``biortho``: ``biortho_eig`` on it, whole; ``outside`` is ``biortho``
  less ``eig``, and for the 4x4 shapes it holds the ``numpy.linalg.inv``
  of the dual basis;
- ``kernel``: ``_fd_qgt`` on the stencils' level-0 projector and its
  derivatives, as ``qgt`` calls it, ``_sos_qgt`` on the flux block and
  on the intensity blocks, on the transport chunk ``build_W``,
  ``_gauged_coefficients`` and ``_o_b`` as ``evolve`` calls them (W, its
  positivity check, the gauged response and K), and on the generators
  ``_gauged_coefficients``, ``_o_b`` and O_mu = i Psi C Phi^dag as
  ``o_operators`` calls them. W, the gauge diagonal and Psi M Phi^dag are
  entrywise at every N; the ratio is closed-form at N = 2, so that the
  transport chunk's one LAPACK call is its eigensolve;
- ``closure``: ``LoopSpec.closed`` on the loop;
- ``request``: one whole request of the point_query kind that solves the
  shape: ``qgt`` at n = 0 on each stencil, ``berry_phase_loop`` on the
  loop and ``metric_intensity`` at the intensity point.

The stages run in interleaved rounds: each round times ``--calls`` calls
of every stage in turn, and the table gives, per stage, the median over
the rounds of the mean time of one call, in microseconds. The header
gives ``nproc``, the BLAS thread variables and the versions. Unless they
are set, one BLAS thread is used, as the benchmark does.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
if __name__ == "__main__":  # before numpy loads its BLAS; the tests import this file
    for _var in THREAD_ENV:
        os.environ.setdefault(_var, "1")
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))

import numpy as np  # noqa: E402

from ptqgt import dynamics, families, geometry, xy_chain  # noqa: E402
from ptqgt.biortho import biortho_eig, build_W, default_step  # noqa: E402
from ptqgt.verify import ANISO  # noqa: E402

STAGES = ("family", "deriv", "eig", "biortho", "outside", "kernel", "closure", "request")


def _stencil(name: str, lam) -> dict:
    model = families.load_bundled_model(name)
    lam = np.asarray(lam, dtype=float)
    step = default_step(lam)
    points = lam + step * geometry._stencil_directions(lam.size)
    h = model(points)
    _, p, dp = geometry._projector_derivatives(model, lam, step)
    return {
        "family": lambda: model(points),
        "eig": lambda: np.linalg.eig(h),
        "biortho": lambda: biortho_eig(h),
        "kernel": lambda: geometry._fd_qgt(p[0], dp[:, 0]),
        "request": lambda: geometry.qgt(model, lam, 0),
    }


def _loop() -> dict:
    model = families.load_bundled_model("pt_two_level")
    t = np.arange(65) / 64
    verts = np.array([0.15, 0.9]) + 0.05 * np.stack([np.cos(2 * np.pi * t),
                                                      np.sin(2 * np.pi * t)], axis=1)
    verts[-1] = verts[0]
    loop = geometry.LoopSpec(verts, level=0)
    h = model(verts[:-1])
    return {
        "family": lambda: model(verts[:-1]),
        "eig": lambda: np.linalg.eig(h),
        "biortho": lambda: biortho_eig(h),
        "closure": lambda: loop.closed,
        "request": lambda: geometry.berry_phase_loop(model, loop),
    }


def _flux_block() -> dict:
    family = families.pt_two_level_family()
    xs = 0.1 + (np.arange(64) + 0.5) * (0.1 / 64)
    ys = 0.85 + (np.arange(8) + 0.5) * (0.1 / 64)
    points = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    h = family(points)
    eig = biortho_eig(h)
    dh = np.stack([family.deriv(points, mu) for mu in (0, 1)], axis=-3)
    levels = np.arange(2) == 0
    return {
        "family": lambda: family(points),
        "deriv": lambda: [family.deriv(points, mu) for mu in (0, 1)],
        "eig": lambda: np.linalg.eig(h),
        "biortho": lambda: biortho_eig(h),
        "kernel": lambda: geometry._sos_qgt(eig, dh, levels),
    }


def _blocks(hs, etas) -> dict:
    ks = xy_chain._gl_nodes(65)[0]
    h = xy_chain._dk_u(ANISO, hs, etas, ks)
    eig = biortho_eig(h)
    occupied = eig.energies.real < 0
    stages = {
        "family": lambda: xy_chain._dk_u(ANISO, hs, etas, ks),
        "eig": lambda: np.linalg.eig(h),
        "biortho": lambda: biortho_eig(h),
        "kernel": lambda: geometry._sos_qgt(eig, xy_chain._DERIVS_U, occupied),
    }
    if len(hs) == 1:
        point = xy_chain.FieldPoint(h=hs[0], eta=etas[0])
        stages["request"] = lambda: xy_chain.metric_intensity(ANISO, point, n_quad=65)
    return stages


def _transport_chunk() -> dict:
    """The first chunk of ``evolve`` on a pt_loop circle: its half-steps
    and step ends, and H at the nodes their dH/dt stencils span."""
    family = families.pt_two_level_family()
    steps, tau, radius = 6000, 100.0, 0.05
    chunk = 256  # the steps of one stack of 512 nodes
    nodes = np.arange(2 * steps + 1) * (0.5 * tau / steps)
    k = np.arange(1, 2 * chunk + 1).reshape(chunk, 2)
    first, rows = dynamics._stencil(k, 2 * steps)
    lo, m = first.min(), rows.shape[-1]
    angle = 2.0 * np.pi * nodes[lo:first.max() + m] / tau
    points = np.array([0.15, 0.9]) + radius * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    h_all = family(points)
    window = h_all[(first - lo)[..., None] + np.arange(m)]
    h_dot = np.einsum("...j,...jab->...ab", rows, window) / (0.5 * tau / steps)
    h = h_all[k - lo]
    eig = biortho_eig(h)

    def kernel():
        build_W(eig)
        c = geometry._gauged_coefficients(eig, h_dot[..., None, :, :])[..., 0, :, :]
        return geometry._o_b(eig, c)

    return {
        "family": lambda: family(points),
        "eig": lambda: np.linalg.eig(h),
        "biortho": lambda: biortho_eig(h),
        "kernel": kernel,
    }


def _generators() -> dict:
    """The eigensystem and response of one ``o_operators`` call on a D_k
    block, and the generators formed from them."""
    family = xy_chain.dk_family(ANISO, 0.7)
    lam = np.array([0.5, 0.3])
    h = family(lam)
    eig = biortho_eig(h)
    dh = np.stack([family.deriv(lam, mu) for mu in range(2)])

    def kernel():
        c = geometry._gauged_coefficients(eig, dh)
        return geometry._o_b(eig, c), 1j * geometry._psi_m_phi_dag(eig, c)

    return {
        "family": lambda: family(lam),
        "eig": lambda: np.linalg.eig(h),
        "biortho": lambda: biortho_eig(h),
        "kernel": kernel,
    }


def shapes() -> dict:
    """Every shape's stages, each a call of no arguments."""
    return {
        "stencil-5": _stencil("pt_two_level", [0.15, 0.85]),
        "stencil-7": _stencil("spin_half", [0.3, 0.4, 0.8]),
        "loop-64": _loop(),
        "flux-512": _flux_block(),
        "intensity-65": _blocks([0.5], [0.3]),
        "chunk-455": _blocks(np.linspace(0.2, 1.4, 7), np.full(7, 0.3)),
        "transport-512": _transport_chunk(),
        "generators-4": _generators(),
    }


def measure(rounds: int, calls: int) -> dict:
    """Median over ``rounds`` interleaved rounds of the mean microseconds
    of one call, per shape and stage; ``outside`` is biortho less eig."""
    table = shapes()
    samples = {shape: {stage: [] for stage in stages} for shape, stages in table.items()}
    for _ in range(rounds):
        for shape, stages in table.items():
            for stage, call in stages.items():
                start = time.perf_counter()
                for _ in range(calls):
                    call()
                samples[shape][stage].append((time.perf_counter() - start) / calls * 1e6)
    medians = {shape: {stage: statistics.median(v) for stage, v in row.items()}
               for shape, row in samples.items()}
    for row in medians.values():
        row["outside"] = row["biortho"] - row["eig"]
    return medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        parser.error("--rounds and --calls must be at least 1")
    medians = measure(args.rounds, args.calls)
    threads = ", ".join(f"{var}={os.environ.get(var)}" for var in THREAD_ENV)
    print(f"nproc {os.cpu_count()}, {threads}, numpy {np.__version__}, "
          f"python {platform.python_version()}")
    print(f"median of {args.rounds} interleaved rounds of {args.calls} calls, "
          "us per call")
    print("| shape | " + " | ".join(STAGES) + " |")
    print("| --- " * (len(STAGES) + 1) + "|")
    for shape, row in medians.items():
        cells = [f"{row[stage]:.1f}" if stage in row else "" for stage in STAGES]
        print(f"| {shape} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
