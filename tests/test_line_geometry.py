"""The line geometry of a bisection stays in `groupoid`: an AST scan.

`conv` and `phi` stratify the line and take the images of strata, but they
ask the bisection (`Bisection.image`, `point_image`) and `groupoid`
(`breakpoints`) for that geometry.  A read of tau, or of what is derived
from it, in these modules would put a second copy of it there.

    PYTHONPATH=src python -m pytest -q tests/test_line_geometry.py
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = [ROOT / "src" / "convbialg" / name for name in ("conv.py", "phi.py")]
TAU_READS = {"tau", "tau_diffeo", "tau_apply", "tau_inv_apply", "affine_parts", "is_flat"}


def tau_reads(path):
    """(attribute, line) of each read of a TAU_READS attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in TAU_READS]


def test_conv_and_phi_read_no_tau():
    found = [(path.name, attr, line) for path in MODULES for attr, line in tau_reads(path)]
    assert not found, "line geometry outside groupoid: " + "; ".join(
        f"{name}:{line} .{attr}" for name, attr, line in found)


def test_scan_finds_a_tau_read(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(E, st):\n    a = E.tau_diffeo().affine_parts()\n"
                      "    return E.is_flat or st.image(E)\n")
    assert sorted(tau_reads(module)) == [("affine_parts", 2), ("is_flat", 3), ("tau_diffeo", 2)]
