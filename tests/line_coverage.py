"""Line coverage of `src/vanetbench` under tier-1, with no dependency beyond
pytest: runs the suite in this process under `sys.settrace` and lists each
statement that never ran. Exits 1 when one is left outside `ALLOWED`, when an
`ALLOWED` entry matches no unexecuted statement, or when a test fails.

    python tests/line_coverage.py [extra pytest arguments]

Only this process is traced: code that runs in a worker or subprocess counts
as unexecuted. The tracer slows the suite about fivefold.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vanetbench"

# the tracer's own allocations push this test's traced peak past its bound
DESELECTED = ["tests/test_mac.py::test_an_epoch_build_peaks_within_its_memory_estimate"]

# (path under src/vanetbench, statement text) -> why no input runs it
ALLOWED = {
    ("routing/base.py", "raise NotImplementedError"):
        "the abstract hooks of RoutingProtocol; every protocol overrides them",
    ("cli.py", "sys.exit(main())"):
        "the `python -m vanetbench.cli` entry; tests call main() itself",
}


def statements(path: Path) -> dict[int, str]:
    """Line -> text of each statement of `path` that compiles to bytecode."""
    source = path.read_text(encoding="utf-8")
    code_lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    text = source.splitlines()
    return {node.lineno: text[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in code_lines}


def main(argv) -> int:
    files = {str(p): p for p in sorted(PACKAGE.rglob("*.py"))}
    hits = {name: set() for name in files}
    by_code = {}                          # code object -> its file's hit set, or None

    def tracer(frame, event, arg):
        code = frame.f_code
        lines = by_code.get(code, False)
        if lines is False:
            lines = by_code[code] = hits.get(code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest                          # before tracing: its imports are not ours

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                              *(f"--deselect={t}" for t in DESELECTED), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if not any(hits.values()):
        print(f"nothing under {PACKAGE} ran: is another copy of vanetbench imported?")
        return 1
    missed, unused = 0, set(ALLOWED)
    for name, path in files.items():
        rel = path.relative_to(PACKAGE).as_posix()
        for line, text in sorted(statements(path).items()):
            if line in hits[name]:
                continue
            if (rel, text) in ALLOWED:
                unused.discard((rel, text))
                continue
            missed += 1
            print(f"src/vanetbench/{rel}:{line}: {text}")
    for rel, text in sorted(unused):
        print(f"allowlisted but not unexecuted: src/vanetbench/{rel}: {text}")
    print(f"{missed} unexecuted statements outside the allowlist")
    return 1 if missed or unused else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
