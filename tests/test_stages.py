"""One round of tools/stages.py, the per-stage timing harness."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "stages.py"
_spec = importlib.util.spec_from_file_location("stages", _PATH)
stages = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stages)

SHAPES = ("stencil-5", "stencil-7", "loop-64", "flux-512", "intensity-65", "chunk-455",
          "transport-512", "generators-4")


def test_one_round_times_every_stage_of_every_shape(capsys):
    assert stages.main(["--rounds", "1", "--calls", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("nproc ") and "OPENBLAS_NUM_THREADS=" in lines[0]
    assert lines[2] == "| shape | " + " | ".join(stages.STAGES) + " |"
    table = [[cell.strip() for cell in line.split("|")[1:-1]] for line in lines[4:]]
    rows = {row[0]: row[1:] for row in table}
    assert tuple(rows) == SHAPES
    for shape, cells in rows.items():
        timed = {stage: cell for stage, cell in zip(stages.STAGES, cells) if cell}
        assert {"family", "eig", "biortho", "outside"} <= set(timed), shape
        assert all(float(timed[stage]) > 0 for stage in timed if stage != "outside")
    # the two deriv calls of a flux block, a request of each point_query
    # kind, the closure test on the loop
    deriv = stages.STAGES.index("deriv")
    assert [shape for shape, cells in rows.items() if cells[deriv]] == ["flux-512"]
    assert [shape for shape, cells in rows.items() if cells[-1]] == [
        "stencil-5", "stencil-7", "loop-64", "intensity-65"]
    assert [shape for shape, cells in rows.items() if cells[-2]] == ["loop-64"]
