"""The environment that tools/bench_pairs.py gives each tree's subprocesses,
and the names it reads from a tree.

    PYTHONPATH=src python -m pytest -q tests/test_bench_pairs.py
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from convbialg.cli import DEMOS
from convbialg.suites import SUITES

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_each_tree_gets_its_own_empty_bytecode_cache(tmp_path):
    envs = bench_pairs.tree_envs(str(tmp_path))
    assert sorted(envs) == ["base", "change"]
    prefixes = [envs[side]["PYTHONPYCACHEPREFIX"] for side in ("base", "change")]
    assert prefixes[0] != prefixes[1]
    for side, prefix in zip(("base", "change"), prefixes):
        assert Path(prefix).parent == tmp_path
        assert os.listdir(prefix) == []
        assert envs[side]["PYTHONPATH"] == "src"
        # a subprocess started with this environment caches under its prefix
        out = subprocess.run([sys.executable, "-c", "import sys; print(sys.pycache_prefix)"],
                             env=envs[side], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == prefix


def test_each_tree_writes_its_bytecode_cache(tmp_path, monkeypatch):
    # set in the calling shell, the variable reaches neither side
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    envs = bench_pairs.tree_envs(str(scratch))
    modules = tmp_path / "modules"
    modules.mkdir()
    (modules / "probe_module.py").write_text("VALUE = 1\n", encoding="utf-8")
    for side in ("base", "change"):
        env = envs[side]
        assert "PYTHONDONTWRITEBYTECODE" not in env
        subprocess.run([sys.executable, "-c", "import probe_module"], cwd=modules, env=env,
                       check=True)
        cached = [p.name for p in Path(env["PYTHONPYCACHEPREFIX"]).rglob("*.pyc")]
        assert any(name.startswith("probe_module.") for name in cached)
    assert not (modules / "__pycache__").exists()


def test_the_hashed_suites_and_demos_are_the_trees_own(tmp_path, monkeypatch):
    # each report is named, not run: the names come from the tree itself
    monkeypatch.setattr(bench_pairs, "_hash_run", lambda tree, env, argv: None)
    envs = bench_pairs.tree_envs(str(tmp_path))
    hashes = bench_pairs._report_hashes(str(ROOT), envs["change"])
    assert [key[len("check "):] for key in hashes if key.startswith("check ")] == sorted(SUITES)
    assert [key[len("demo "):] for key in hashes if key.startswith("demo ")] == sorted(DEMOS)


def test_each_metric_is_better_as_the_benchmark_declares():
    better = bench_pairs.metric_better(str(ROOT))
    assert better["op_rate"] == better["adjoint.ad_matrix.useful_ratio"] == "higher"
    assert better["verdicts_s"] == better["peak_rss_mb"] == "lower"
