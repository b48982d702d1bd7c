"""The golden outputs: which CLI runs are pinned, how each output is
normalised, and how an output is compared with its golden file.

``tests/test_golden.py`` checks every case against ``tests/golden/``, and
``python tests/golden/regenerate.py`` rewrites the files from the current
code.  A change that moves output bits regenerates them, so that its diff of
``tests/golden/`` shows every moved byte.
"""

import math
import re
import tempfile
from pathlib import Path

from oam_interferometry.cli import main
from helpers import without_timestamp

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# CI's libm and numpy's SIMD sin/cos may differ from the machine that wrote
# the files in the last place, and the cancellation in
# cosh 2g + sinh 2g cos 2 ell phi near the optimum multiplies that difference;
# a float cell may therefore move by this much, relative, and no more
FLOAT_RTOL = 1e-12

# a validate line whose worst deviation sits below this is rounding, not
# truncation: only its staying below is pinned, not its value or its point
ROUNDING_LEVEL = 1e-12

# fig2 has 8,181 rows (480 KB): its golden keeps the header, the row count
# and every FIG2_STRIDE-th row, the first and the last included
FIG2_STRIDE = 101

FIG3_POINT = "g = 2\nell = 1\nalpha_sq = 100\ntheta = 1.5707963267948966\nphi = 0.8\n"

# name -> (CLI arguments, config text or None); "{config}" stands for the
# config file's path
CASES = {
    **{f"reproduce_{fig}": (["reproduce", fig], None)
       for fig in ("fig2", "fig3", "fig4", "fig6", "fig7", "fig8")},
    "eval_fig3_point": (["eval", "--config", "{config}"], FIG3_POINT),
    "eval_lossy": (["eval", "--config", "{config}"], FIG3_POINT + "transmissivity = 0.62\n"),
    # cosh 2g overflows: the undefined columns read nan and the row is flagged
    "eval_g360": (
        ["eval", "--config", "{config}"], "g = 360\nalpha_sq = 1\ntheta = 1.5707963267948966\n"
    ),
    "max_loss_fig3_point": (["max-loss", "--config", "{config}"], "g = 2\nell = 1\nalpha_sq = 100\n"),
    "sweep_2d": (
        ["sweep", "--config", "{config}"],
        "alpha_sq = 10\nquantity = sensitivity\nsweep = g 0 2 5\nsweep = phi 0 1 4\n",
    ),
    "sweep_ell": (
        ["sweep", "--config", "{config}"],
        "g = 1\nalpha_sq = 10\nphi = 0.3\nquantity = signal\nsweep = ell 1 5 5\n",
    ),
    # the two sweeps with undefined points that CI greps for
    "sweep_qcrb_undefined": (
        ["sweep", "--config", "{config}"], "alpha_sq = 1\nquantity = qcrb\nsweep = g 0 700 8\n"
    ),
    "sweep_bright_snl": (
        ["sweep", "--config", "{config}"], "alpha_sq = 1e12\nquantity = snl\nsweep = g 0 350 8\n"
    ),
    "validate_quick": (["validate", "--preset", "quick"], None),
    "validate_full": (["validate", "--preset", "full"], None),
}


def path_of(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.{'txt' if name.startswith('validate') else 'csv'}"


def _sampled(text: str) -> str:
    """A CSV cut to its header, a row count and every FIG2_STRIDE-th row."""
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    header, rows = lines[:start], lines[start:]
    keep = sorted(set(range(0, len(rows), FIG2_STRIDE)) | {len(rows) - 1})
    step = FIG2_STRIDE
    count = f"# golden: {len(rows)} rows; kept rows 0, {step}, {2 * step}, ... and the last\n"
    return "".join(header[:-1] + [count, header[-1]] + [rows[i] for i in keep])


def render(name: str) -> str:
    """The normalised output of the case ``name``, run through ``cli.main``."""
    args, config = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        config_path, out = Path(tmp, "case.cfg"), Path(tmp, "out")
        if config is not None:
            config_path.write_text(config, encoding="utf-8")
        args = [str(config_path) if a == "{config}" else a for a in args]
        code = main([*args, "--out", str(out)])
        text = out.read_text(encoding="utf-8")
    assert code == 0, f"{name} exited {code}"
    text = without_timestamp(text)
    return _sampled(text) if name == "reproduce_fig2" else text


def _close(expected: str, actual: str) -> bool:
    """Equal text, or two floats within FLOAT_RTOL of each other."""
    if expected == actual:
        return True
    try:
        return math.isclose(float(expected), float(actual), rel_tol=FLOAT_RTOL)
    except ValueError:
        return False


def _csv_rows_match(expected: str, actual: str) -> bool:
    # the header's '#' lines and the column names are text
    if expected.startswith("#") or actual.startswith("#"):
        return expected == actual
    cells, others = expected.split(","), actual.split(",")
    return len(cells) == len(others) and all(map(_close, cells, others))


_CHECK_LINE = re.compile(
    r"^  (?P<name>.{44}) worst (?P<worst>\S+)  tol (?P<tol>\S+)  (?P<status>PASS|FAIL)"
    r"  at (?P<at>\S*)(?:  cutoff=(?P<cutoff>\d+) tail=(?P<tail>\S+))?$"
)


def _validate_rows_match(expected: str, actual: str) -> bool:
    """Each check's name, tolerance and status are pinned.  Its worst value,
    point, cutoff and tail are pinned only at truncation level; below that
    the value is rounding and need only stay below ROUNDING_LEVEL."""
    e, a = _CHECK_LINE.match(expected), _CHECK_LINE.match(actual)
    if e is None or a is None:
        return expected == actual
    if (e["name"], e["tol"], e["status"]) != (a["name"], a["tol"], a["status"]):
        return False
    if float(e["worst"]) < ROUNDING_LEVEL:
        return float(a["worst"]) < ROUNDING_LEVEL
    return (
        _close(e["worst"], a["worst"])
        and (e["at"], e["cutoff"]) == (a["at"], a["cutoff"])
        and (e["tail"] is None) == (a["tail"] is None)
        and (e["tail"] is None or _close(e["tail"], a["tail"]))
    )


def mismatches(name: str, expected: str, actual: str, limit: int = 5) -> list[str]:
    """The first ``limit`` differing rows of an output and its golden, each
    as its line number, the golden row and the output's row."""
    rows_match = _validate_rows_match if name.startswith("validate") else _csv_rows_match
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    out = []
    if len(exp_lines) != len(act_lines):
        out.append(f"{len(act_lines)} lines, golden has {len(exp_lines)}")
    for i, (e, a) in enumerate(zip(exp_lines, act_lines), start=1):
        if not rows_match(e, a):
            out.append(f"line {i}:\n  golden: {e}\n  output: {a}")
            if len(out) >= limit:
                break
    return out
