#!/usr/bin/env python3
"""Functions of the foodwatch package that no CLI command enters.

Runs, in this process and under ``sys.setprofile``: ``config-keys``, ``run``,
``run`` with ``privacy.enabled=false``, and each stage command in order
against one artifact directory. Then prints every function defined in the
package that none of them entered, with its line count (decorators to last
line), and the total. A function nested in one that was never entered is
counted with it, not on its own line. ``--seed``, ``--days`` and ``--set
key=value`` go to every command but ``config-keys``.

    python scripts/unreached.py --seed 0
    python scripts/unreached.py --days 8 --set sim.n_users=700
"""

import argparse
import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path


def commands(out: Path, args: list[str], stages: list[str]) -> list[list[str]]:
    """The CLI argument lists to run, in order."""
    return [
        ["config-keys"],
        ["run", "--out", str(out / "run"), *args],
        ["run", "--out", str(out / "run-exact"), *args, "--set", "privacy.enabled=false"],
        *([stage, "--out", str(out / "stages"), *args] for stage in stages),
    ]


def functions(path: Path) -> list[tuple[int, int, str]]:
    """Every function of a module, each before those nested in it: its first
    line (its first decorator's, as its code object counts it), last line
    and qualified name."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, child.end_lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--days", type=int)
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args()
    command_args = [f"--set={kv}" for kv in args.overrides]
    command_args += [] if args.seed is None else ["--seed", str(args.seed)]
    command_args += [] if args.days is None else ["--days", str(args.days)]

    entered = set()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
    try:
        from foodwatch import cli, config  # imported under the profile, so module-level calls count

        stages = [stage.command for stage in config.STAGES]
        with tempfile.TemporaryDirectory() as scratch:
            for argv in commands(Path(scratch), command_args, stages):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    print(f"foodwatch {argv[0]} exited {code}", file=sys.stderr)
                    return 1
    finally:
        sys.setprofile(None)

    package = Path(cli.__file__).resolve().parent
    started = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in entered}
    total_lines = total_functions = 0
    for path in sorted(package.glob("*.py")):
        skip_to = 0  # the last line of the unreached function being reported
        for first, last, name in functions(path):
            if first <= skip_to or (path.resolve(), first) in started:
                continue
            skip_to = last
            lines = last - first + 1
            print(f"{package.name}/{path.name}:{first} {name} {lines}")
            total_lines += lines
            total_functions += 1
    print(f"{total_lines} lines in {total_functions} functions never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
