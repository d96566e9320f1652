"""What a request imports: the package resolves names on first use, and each
CLI subcommand loads only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schurlab
from schurlab import cli, io

SRC = str(Path(schurlab.__file__).resolve().parents[1])

# each module ``import schurlab.cli`` leaves out, and the subcommands that load it
LOADED_BY = {
    "completion": {"complete", "verify"},
    "extreme": {"verify"},
    "groups": {"enumerate", "verify"},
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
    assert {"core", "errors", "io", "multiplicative", "star"} <= loaded
    assert loaded & set(LOADED_BY) == {m for m, cmds in LOADED_BY.items() if command in cmds}


def test_import_alone_loads_core_and_errors():
    assert loaded_after("import schurlab") == {"core", "errors"}


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
    the one each command calls, also for names ``cli`` loads on demand."""
    calls = []

    def spy(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("certify_multiplicative", "certify_star_multiplicative",
                 "unboundedness_witness", "enumerate_real_positive"):
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
    capsys.readouterr()
    assert [c for c in calls if not c.startswith("io.")] == [
        "unboundedness_witness", "enumerate_real_positive",
        "certify_multiplicative", "certify_star_multiplicative",
    ]
    assert {"io.complex_cells", "io.dumps_document", "io.load_matrix_file"} <= set(calls)
