"""A pytest plugin that lists each function-body statement of `src/rareclass`
that no test ran.

    PYTHONPATH=src:tools python -m pytest -q -p linetrace

Lines are traced with `sys.settrace` in the pytest process and in the threads
it starts. Forked workers and child interpreters are not traced, so a statement
that only a pool worker or `bench`'s child runs is listed as not run. The file
is named so that pytest does not collect it as a test module.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rareclass"

_ran: dict[Path, set[int]] = {}               # source file -> the lines a line event was seen on
_ours: dict[object, set[int] | None] = {}     # code object -> its file's set, or None if not ours


def _local(frame, event, arg):
    if event == "line":
        _ours[frame.f_code].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    if code not in _ours:
        path = Path(code.co_filename).resolve()
        _ours[code] = _ran.setdefault(path, set()) if path.parent == SRC else None
    return _local if _ours[code] is not None else None


def _stop() -> None:
    sys.settrace(None)
    threading.settrace(None)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before the conftest files import rareclass, so that import-time calls are seen too
    sys.settrace(_global)
    threading.settrace(_global)
    os.register_at_fork(after_in_child=_stop)


def _header(node: ast.AST) -> tuple[int, int] | None:
    """The lines whose events mean the statement ran, or None for a statement
    with no code of its own (`global`, `nonlocal`, a bare `try:`)."""
    if isinstance(node, ast.FunctionDef):                 # a nested def: its own body is listed apart
        return node.lineno, node.lineno
    if isinstance(node, (ast.If, ast.While)):
        return node.lineno, node.test.end_lineno
    if isinstance(node, ast.For):
        return node.lineno, node.iter.end_lineno
    if isinstance(node, ast.With):
        return node.lineno, node.items[-1].context_expr.end_lineno
    if isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
        return None
    if isinstance(node, ast.ExceptHandler):                # a bare `except:` has no line of its own
        return node.lineno, (node.type or node).end_lineno
    return node.lineno, node.end_lineno


def _statements(body: list[ast.stmt]):
    """Each statement of a body and of the blocks inside it, but not of a nested def."""
    for node in body:
        yield node
        if not isinstance(node, ast.FunctionDef):
            for field in ("body", "handlers", "orelse", "finalbody"):
                yield from _statements(getattr(node, field, []))


def not_run(path: Path, ran: set[int]) -> list[int]:
    """The first line of each function-body statement in `path` with no line event in `ran`."""
    missed = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, ast.FunctionDef):
            continue
        body = fn.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]                                   # the docstring
        for node in _statements(body):
            lines = _header(node)
            if lines is not None and not ran.intersection(range(lines[0], lines[1] + 1)):
                missed.append(node.lineno)
    return sorted(set(missed))


def pytest_terminal_summary(terminalreporter):
    _stop()
    root = SRC.parent.parent
    report = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in not_run(path, _ran.get(path, set())):
            report.append(f"{path.relative_to(root)}:{line}: {source[line - 1].strip()}")
    terminalreporter.section("linetrace")
    terminalreporter.write_line(f"{len(report)} function-body statements of src/rareclass not run "
                                "(forked workers and child interpreters are not traced)")
    for line in report:
        terminalreporter.write_line(line)
