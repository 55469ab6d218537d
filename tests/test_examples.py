"""Smoke tests: every example script runs (at reduced arguments)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 240.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_all_examples_present():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "websearch_comparison.py", "asymmetric_fabric.py",
            "model_explorer.py", "custom_scheme.py", "incast_oldi.py",
            "queue_dynamics.py", "fat_tree.py"} <= names


def test_incast_example_tiny():
    out = run_example("incast_oldi.py", "--requests", "4", "--fanout", "4",
                      "--schemes", "ecmp", "tlb", "--paths", "4")
    assert "partition-aggregate" in out
    assert "RCT" in out


def test_queue_dynamics_tiny():
    out = run_example("queue_dynamics.py", "--shorts", "8", "--paths", "3",
                      "--window-ms", "10")
    assert "TLB (tlb)" in out
    assert "flow-level" in out


def test_quickstart_small():
    out = run_example("quickstart.py", "--short-flows", "8",
                      "--long-flows", "1", "--paths", "4")
    assert "scheme=tlb" in out
    assert "all flows completed: True" in out


def test_quickstart_list():
    out = run_example("quickstart.py", "--list")
    assert "tlb" in out and "ecmp" in out


def test_fat_tree_tiny():
    out = run_example("fat_tree.py", "--flows", "2", "--size-kb", "20")
    assert "k=4 fat tree" in out
    assert "ecmp_fct_ms" in out and "tlb_fct_ms" in out


def test_model_explorer():
    out = run_example("model_explorer.py")
    assert "q_th vs number of short flows" in out
    assert "path split" in out


def test_websearch_comparison_tiny():
    out = run_example(
        "websearch_comparison.py", "--flows", "15", "--loads", "0.3",
        "--schemes", "ecmp", "tlb", "--processes", "0")
    assert "Fig. 10" in out
    assert "AFCT reduction" in out


def test_examples_compile():
    """Every example byte-compiles (catches syntax rot in heavy ones)."""
    import py_compile

    for path in EXAMPLES.glob("*.py"):
        py_compile.compile(str(path), doraise=True)
