"""A command's process ends at its verdict: ``cli.main`` has the interpreter
freeze the heap at exit, so that the shutdown collection skips it, and the
engine leaves no reference cycles for that collection to find."""

import gc
import io
import json
import os
import subprocess
import sys
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hopfalg import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(os.environ, PYTHONPATH=SRC)


def python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=ENV)


def test_the_heap_is_frozen_when_the_process_of_a_command_exits():
    # atexit runs its handlers last in, first out: one registered before main
    # runs after main's.
    code = ("import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count()))\n"
            "from hopfalg import cli\n"
            "code = cli.main(['enumerate-trees', '3', '--output', 'text'])\n"
            "print('frozen after main:', gc.get_freeze_count())\n"
            "sys.exit(code)\n")
    proc = python(code)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["[[[]]] [[][]]", "frozen after main: 0"]
    assert lines[2].startswith("frozen at exit: ") and int(lines[2].split(": ")[1]) > 0


def test_a_process_that_only_imports_hopfalg_keeps_the_default_shutdown():
    code = ("import atexit, gc\n"
            "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count()))\n"
            "from hopfalg import cli, hopf, duals\n")
    proc = python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "frozen at exit: 0\n"


@pytest.mark.parametrize("argv, code", [
    (["antipode", "--schema", "ladder", "--expr", "t3"], 0),
    (["verify", "--schema", "custom:{}", "--max-degree", "3"], 1),
    (["coproduct", "--expr", "(t1+t2+t3)^64*(t1+t2+t3)^64"], 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_the_module_writes_what_main_returns(argv, code, tmp_path, capsys):
    # D(t3) lacks t2 (x) t1, so it is not coassociative: verify reports that and exits 1.
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({
        "generators": [{"name": "t1", "degree": 1}, {"name": "t2", "degree": 2}, {"name": "t3", "degree": 3}],
        "reducedCoproduct": {"t2": [{"left": [["t1", 1]], "right": "t1", "coeff": "1"}],
                             "t3": [{"left": [["t1", 1]], "right": "t2", "coeff": "1"}]}}))
    argv = [a.format(path) for a in argv]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "hopfalg.cli", *argv], capture_output=True, text=True,
                          timeout=60, env=ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


def test_main_freezes_nothing_in_process_and_registers_once(capsys):
    frozen = gc.get_freeze_count()
    cli.main(["enumerate-trees", "2"])
    assert gc.get_freeze_count() == frozen
    code = ("import atexit\n"
            "from hopfalg import cli\n"
            "counts = [atexit._ncallbacks()]\n"
            "for _ in range(2):\n"
            "    cli.main(['enumerate-trees', '2'])\n"
            "    counts.append(atexit._ncallbacks())\n"
            "print(counts)\n")
    proc = python(code)
    assert proc.returncode == 0, proc.stderr
    before, once, twice = json.loads(proc.stdout.splitlines()[-1])
    assert once == twice == before + 1


def _write(directory, name, payload) -> str:
    path = directory / name
    path.write_text(json.dumps(payload))
    return str(path)


def _laurent(*pairs, trunc=None) -> dict:
    coeffs = dict(pairs)
    return {"minExp": min(int(k) for k in coeffs), "truncation": trunc, "coeffs": coeffs}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("shutdown")
    return {
        "loop": _write(d, "loop.json", {"kind": "character", "ring": "laurent", "values": {
            "t1": _laurent(("-1", "1"), ("0", "1/2")), "t2": _laurent(("-2", "1"))}}),
        "under": _write(d, "under.json", {"kind": "character", "ring": "laurent", "values": {
            "t1": _laurent(("-2", "1"), trunc=1), "t2": _laurent(("-2", "1"), trunc=1)}}),
        "nonspecial": _write(d, "nonspecial.json", {"kind": "character", "ring": "laurent", "values": {
            "t1": _laurent(("-2", "1"))}}),
        "z": _write(d, "z.json", {"kind": "infinitesimal", "ring": "rational", "values": {"t1": "1", "t2": "1/2"}}),
        "chi": _write(d, "chi.json", {"kind": "character", "ring": "rational", "values": {"t1": "1", "t2": "1/2"}}),
    }


# One small input per command, with the non-special rg-check (exit 1) and the
# under-resolved birkhoff (exit 2).
COMMANDS = {
    "coproduct": (["coproduct", "--expr", "t1*t2 + t3"], 0),
    "antipode": (["antipode", "--schema", "trees:4", "--expr", "[[][]]"], 0),
    "convolve": (["convolve", "{chi}", "{chi}", "--max-degree", "3"], 0),
    "exp": (["exp", "{z}", "--max-degree", "4"], 0),
    "log": (["log", "{chi}", "--max-degree", "4"], 0),
    "birkhoff": (["birkhoff", "{loop}", "--max-degree", "4"], 0),
    "birkhoff-under-budget": (["birkhoff", "{under}", "--max-degree", "3"], 2),
    "beta": (["beta", "{loop}", "--max-degree", "3"], 1),
    "build-loop": (["build-loop", "{z}", "--max-degree", "3"], 0),
    "rg-check-non-special": (["rg-check", "{nonspecial}", "--max-degree", "1"], 1),
    "scattering": (["scattering", "{z}", "--max-degree", "3", "--max-order", "2"], 0),
    "verify": (["verify", "--schema", "trees:3", "--max-degree", "3"], 0),
    "enumerate-trees": (["enumerate-trees", "4"], 0),
}


def _from_hopfalg(obj) -> bool:
    return (getattr(type(obj), "__module__", None) or "").startswith("hopfalg")


@pytest.mark.parametrize("case", list(COMMANDS))
def test_a_command_leaves_no_engine_data_in_reference_cycles(case, files):
    argv, code = COMMANDS[case]
    argv = [a.format(**files) for a in argv]
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == code
            gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    # Only argparse's parser, which its actions refer back to, is left to the collector.
    assert [type(o).__qualname__ for o in garbage if _from_hopfalg(o) and type(o) is not cli._Parser] == []
    assert [o.__qualname__ for o in garbage
            if isinstance(o, types.FunctionType) and o.__module__.startswith("hopfalg")] == []
    # Every file a command opens is closed before the shortened shutdown.
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
