"""The split between the closed forms in `codes` and the engine that checks them.

A closed form that used the engine would no longer be checked by it, so no
closed form may read a name that `bsym.engine` defines, and the engine binds
nothing from `bsym.codes`.  The library, the CLI and the engine load nothing
outside the standard library.
"""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from bsym import codes, engine

SRC = Path(__file__).resolve().parent.parent / "src"

CLOSED_FORMS = ["_split", "hamming_distance_formula", "thm11_decompositions",
                "_closed_form", "closed_form_db", "sandwiches", "check_row",
                "lemma10_weight"]


def _defined_in(module) -> dict:
    """The names a module's own top-level statements define, with their values."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name: getattr(module, name) for name in names}


def _names(code) -> set:
    """Every global or attribute name that code, or a code nested in it, reads."""
    found = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            found |= _names(const)
    return found


def test_engine_defines_what_codes_calls():
    assert {"_min_weights", "refuse_above_cap", "above_cap"} <= set(_defined_in(engine))


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_no_closed_form_uses_the_engine(name):
    from_engine = [engine, *_defined_in(engine).values()]
    reads = [vars(codes)[read] for read in _names(getattr(codes, name).__code__)
             if read in vars(codes)]
    assert not [value for value in reads if any(value is v for v in from_engine)], \
        f"codes.{name} reads a name that bsym.engine defines"


def test_the_engine_binds_nothing_from_codes():
    assert [
        name for name, value in vars(engine).items()
        if value is codes or getattr(value, "__module__", None) == codes.__name__
    ] == []


def test_library_cli_and_engine_load_only_the_standard_library():
    """-S leaves out the site module's .pth files, which import packages of
    their own; site-packages is still put on the path, so an import of an
    installed package such as numpy would load and be caught here."""
    script = (
        "import site, sys\n"
        f"sys.path[:0] = [{str(SRC)!r}]\n"
        "sys.path += site.getsitepackages()\n"
        "import bsym, bsym.cli, bsym.engine\n"
        "print(sorted(name for name in sys.modules if name != '__main__'\n"
        "             and name.partition('.')[0] not in sys.stdlib_module_names\n"
        "             and name.partition('.')[0] != 'bsym'))\n"
    )
    run = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                         text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr
