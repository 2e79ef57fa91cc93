"""List the functions in ``src/repro`` that no consumer of the package calls.

Run it with the Python that runs the package (stdlib only, 3.9+)::

    python tools/reachability.py              # the consumers alone
    python tools/reachability.py tests -q     # and a traced pytest run

The consumers are what the package exists for: every ``repro-phases``
experiment at ``--scale 0.05`` (cold in parallel, then warm from the
store), the CLI's list, classify and cache paths, every example and
every ``benchmarks/bench_*.py`` module. Each runs in a subprocess whose
``sitecustomize`` installs a profile hook (``sys.setprofile`` and
``threading.setprofile``) recording the file, first line and name of
every code object entered; the processes they start (engine pools,
``serve``, cluster workers) inherit it through ``PYTHONPATH``. A code
object belongs to the AST ``def`` with its file and first line, which
is the first decorator's line for a decorated function.

For each module it prints every ``def`` no consumer calls, with its
line count (a ``def`` inside one already listed is not listed again).
Arguments, if any, go to ``python -m pytest`` run from the repository
root under the same hook, which marks each listed ``def``
``tests-only`` or ``never``. Failed runs are named on stderr: a run
that stops early calls less than it should.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"

HOOK = """\
import os, sys, threading
_fd = os.open(os.path.join({out!r}, str(os.getpid())),
              os.O_WRONLY | os.O_CREAT | os.O_APPEND)
_seen = {{}}
def _hook(frame, event, arg):
    if event == "call" and id(frame.f_code) not in _seen:
        code = _seen[id(frame.f_code)] = frame.f_code
        if code.co_filename.startswith({root!r}):
            os.write(_fd, ("%s\\t%d\\t%s\\n" % (
                code.co_filename, code.co_firstlineno, code.co_name
            )).encode())
sys.setprofile(_hook)
threading.setprofile(_hook)
"""


def defs(path):
    """``(first line, name) -> (qualname, lines, enclosing def key)`` for
    every ``def`` in ``path``; a decorated one starts at its first
    decorator, as its code object does."""
    found = {}

    def visit(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            inner, owner = prefix, parent
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                owner = (first, child.name)
                found[owner] = (prefix + child.name,
                                child.end_lineno - first + 1, parent)
                inner = prefix + child.name + "."
            elif isinstance(child, ast.ClassDef):
                inner = prefix + child.name + "."
            visit(child, inner, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "", None)
    return found


def traced(commands, cwd=None):
    """Run ``commands`` under the hook; the ``(file, first line, name)``
    of every package code object any of their processes entered."""
    with tempfile.TemporaryDirectory() as scratch:
        out, hook = Path(scratch, "out"), Path(scratch, "hook")
        out.mkdir()
        hook.mkdir()
        hook.joinpath("sitecustomize.py").write_text(HOOK.format(
            out=str(out), root=os.path.realpath(PACKAGE)))
        env = dict(os.environ, REPRO_PHASES_STORE=str(Path(scratch, "store")))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(REPO / "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        for command in commands:
            code = subprocess.run(command, cwd=cwd or scratch, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
            if code:
                print(f"exit {code}: {' '.join(command[1:])}", file=sys.stderr)
        called = set()
        for record in out.iterdir():
            for line in record.read_text().splitlines():
                name, first, function = line.split("\t")
                called.add((os.path.realpath(name), int(first), function))
        return called


def consumers():
    cli = [sys.executable, "-m", "repro.harness.cli"]
    cold = ["--scale", "0.05", "--jobs", "2", "--json", "out.json",
            "--metrics", "out.prom", "--events", "out.jsonl"]
    benches = sorted(str(p) for p in REPO.glob("benchmarks/bench_*.py"))
    return [
        cli + ["--list"], cli + ["--benchmarks"],
        cli + ["--scale", "0.05", "--classify", "mcf", "--no-store"],
        cli + cold, cli + ["--scale", "0.05", "--jobs", "1"],
        cli + ["cache", "stats"], cli + ["cache", "clear"],
    ] + [[sys.executable, str(p)]
         for p in sorted(REPO.glob("examples/*.py"))] + [
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable"] + benches,
    ]


def main(pytest_args):
    called = traced(consumers())
    tested = pytest_args and traced([[sys.executable, "-m", "pytest",
                                      "-p", "no:cacheprovider"]
                                     + pytest_args], str(REPO))
    defs_seen, totals = 0, {}
    for path in sorted(PACKAGE.rglob("*.py")):
        file, found = os.path.realpath(path), defs(path)
        defs_seen += len(found)
        missed = {key for key in found if (file, *key) not in called}
        rows = []
        for key in sorted(missed):
            qualname, lines, parent = found[key]
            if parent not in missed:
                kind = "" if not pytest_args else (
                    "tests-only" if (file, *key) in tested else "never")
                n, total = totals.get(kind or "uncalled", (0, 0))
                totals[kind or "uncalled"] = (n + 1, total + lines)
                rows.append(f"  {kind:10s} {lines:5d}  {qualname}")
        if rows:
            print(path.relative_to(PACKAGE.parent), *rows, sep="\n")
    print(f"\n{defs_seen} defs under src/repro; no consumer calls "
          + ", ".join(f"{kind} {n} ({lines} lines)"
                      for kind, (n, lines) in sorted(totals.items())))


if __name__ == "__main__":
    main(sys.argv[1:])
