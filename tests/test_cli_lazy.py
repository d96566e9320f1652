"""What a request imports: the package resolves names on first use, and each
CLI subcommand loads only the modules it runs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schurlab
from schurlab import cli, io

SRC = str(Path(schurlab.__file__).resolve().parents[1])

# each module ``import schurlab.cli`` leaves out, and the subcommands that load it
LOADED_BY = {
    "_parallel_load": set(),  # only for a document of at least 512 KiB
    "completion": {"complete", "verify"},
    "extreme": {"verify"},
    "groups": {"enumerate", "verify"},
    "multiplicative": {"check", "factor", "norm", "witness", "verify"},
    "star": {"check", "verify"},
    "truncation": {"witness", "verify"},
    "verify": {"verify"},
}


def loaded_after(code: str, *args: str) -> set[str]:
    """The ``schurlab`` submodules a fresh interpreter holds after running ``code``."""
    report = ("\nimport json, sys\nprint(json.dumps(sorted("
              "m[9:] for m in sys.modules if m.startswith('schurlab.'))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    res = subprocess.run([sys.executable, "-c", code + report, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout.splitlines()[-1]))


def documents(tmp_path) -> dict:
    full = tmp_path / "full.json"
    full.write_text('{"rows":2,"cols":2,"data":[[[1,0],[0,1]],[[0,-1],[1,0]]]}')
    partial = tmp_path / "partial.json"
    partial.write_text('{"rows":3,"cols":3,"data":[[null,[2,0],null],[null,null,[3,0]],[null,null,null]]}')
    return {
        "check": ["check", str(full), "--star", "--json"],
        "factor": ["factor", str(full)],
        "norm": ["norm", str(full), "--json"],
        "complete": ["complete", str(partial)],
        "enumerate": ["enumerate", "3"],
        "witness": ["witness", "4", "--gen", "toeplitz:0,1"],
        "verify": ["verify", "--suite", "thm21", "--trials", "1"],
    }


@pytest.mark.parametrize("command", ["check", "factor", "norm", "complete", "enumerate", "witness", "verify"])
def test_subcommand_loads_only_its_modules(tmp_path, command):
    argv = documents(tmp_path)[command]
    loaded = loaded_after(
        "import sys\nfrom schurlab import cli\nassert cli.main(sys.argv[1:]) == 0", *argv
    )
    assert {"core", "errors", "io"} <= loaded
    assert loaded & set(LOADED_BY) == {m for m, cmds in LOADED_BY.items() if command in cmds}


def test_split_parse_loads_no_concurrency_module(tmp_path):
    """A check on a document above the split size forks by hand: it loads no
    process pool, executor, subprocess or thread module the interpreter did
    not already hold at start-up."""
    f = np.exp(2j * np.pi * np.random.default_rng(0).random(128))
    path = tmp_path / "large.json"
    path.write_text(io.dumps_document(io.matrix_to_document(np.outer(f, 1 / f))))
    assert path.stat().st_size >= 2 * io._PIECE_MIN_BYTES
    code = (
        "import os, sys\n"
        "WATCH = ('multiprocessing', 'concurrent', 'subprocess', 'threading')\n"
        "before = {m for m in WATCH if m in sys.modules}\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from schurlab import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "assert forks == [1], forks\n"
        "assert 'schurlab._parallel_load' in sys.modules\n"
        "print({m for m in WATCH if m in sys.modules} - before or 'none')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    res = subprocess.run([sys.executable, "-c", code, "check", str(path), "--star", "--json"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "none"


def test_import_alone_loads_core_and_errors():
    assert loaded_after("import schurlab") == {"core", "errors"}


def test_certification_alone_loads_no_io():
    """A certificate is serialized only by ``to_dict``, which loads ``io`` then."""
    code = "import schurlab\nschurlab.certify_multiplicative([[1, 1j], [-1j, 1]])"
    assert loaded_after(code) == {"core", "errors", "multiplicative"}


def test_cli_resolves_library_names_through_the_package():
    """``schurlab._HOME`` is the one name table: every library name a command
    reaches through ``_cli`` is the package's."""
    tree = ast.parse(Path(cli.__file__).read_text())
    called = {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "_cli"}
    assert {"certify_multiplicative", "certify_star_multiplicative", "factor_scaling",
            "schur_map_norm", "complete_partial", "run_suite"} <= called
    for name in called:
        assert getattr(cli, name) is getattr(schurlab, name), name
    assert not hasattr(cli, "_ON_DEMAND")


class TestLazyNamespace:
    def test_names_are_their_home_modules(self):
        for name, module in schurlab._HOME.items():
            home = importlib.import_module(f"schurlab.{module}")
            assert getattr(schurlab, name) is getattr(home, name), name

    def test_table_follows_each_module_all(self):
        for module in set(schurlab._HOME.values()):
            names = getattr(importlib.import_module(f"schurlab.{module}"), "__all__", None)
            if names is not None:
                assert set(names) == {n for n, m in schurlab._HOME.items() if m == module}

    def test_dir_lists_every_name(self):
        assert set(schurlab.__all__) <= set(dir(schurlab))

    def test_star_import(self):
        namespace: dict = {}
        exec("from schurlab import *", namespace)
        assert set(schurlab.__all__) <= set(namespace)
        assert namespace["run_suite"] is importlib.import_module("schurlab.verify").run_suite

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            schurlab.no_such_name  # noqa: B018
        with pytest.raises(AttributeError):
            cli.no_such_name  # noqa: B018


def test_parser_suite_choices_are_verify_suite_names():
    from schurlab.verify import SUITE_NAMES

    assert cli._SUITE_CHOICES == SUITE_NAMES


def test_commands_call_what_the_module_holds(tmp_path, monkeypatch, capsys):
    """A replacement set on ``cli`` (how a tracer wraps the library calls) is
    the one each command calls: every library name a command reaches is
    resolved through the module, whether or not ``cli`` has loaded it yet."""
    calls = []

    def spy(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("certify_multiplicative", "certify_star_multiplicative", "factor_scaling",
                 "schur_map_norm", "complete_partial", "unboundedness_witness",
                 "enumerate_real_positive"):
        spy(name)

    class CountingIO:
        def __getattr__(self, name):
            calls.append(f"io.{name}")
            return getattr(io, name)

    monkeypatch.setattr(cli, "io", CountingIO())
    argv = documents(tmp_path)
    assert cli.main(argv["witness"]) == 0
    assert cli.main(argv["enumerate"]) == 0
    assert cli.main(argv["check"]) == 0
    for command in ("factor", "norm", "complete"):
        assert cli.main(argv[command]) == 0
    capsys.readouterr()
    assert [c for c in calls if not c.startswith("io.")] == [
        "unboundedness_witness", "enumerate_real_positive",
        "certify_multiplicative", "certify_star_multiplicative",
        "factor_scaling", "schur_map_norm", "complete_partial",
    ]
    assert {"io.complex_cells", "io.dumps_document", "io.load_matrix_file"} <= set(calls)
