"""Line and arm coverage of `src/vanetbench` under tier-1, with no dependency
beyond pytest: runs the suite in this process under `sys.settrace` and lists
each statement that never ran, and each arm that was never evaluated. An arm
is a branch of a conditional expression (`a if c else b`: `a` and `b`) or a
short-circuit operand after the first (`x or y`, `x and y`: `y`). Exits 1 when
one is left outside `ALLOWED`, when an entry matches nothing left unexecuted,
or when a test fails.

    python tests/line_coverage.py [extra pytest arguments]

An arm counts as evaluated when an instruction whose source position lies
inside it runs. Only code objects that hold an arm trace opcodes, and only
until each of their arms has run. Only this process is traced: code that runs
in a worker or subprocess counts as unexecuted. The tracer slows the suite
about fivefold.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vanetbench"

# the tracer's own allocations push this test's traced peak past its bound
DESELECTED = ["tests/test_mac.py::test_an_epoch_build_peaks_within_its_memory_estimate"]

# (path under src/vanetbench, statement text, or "arm `ARM` of: LINE" for an
# arm whose source is ARM on a line whose text is LINE) -> why no input runs it
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


def arms(path: Path) -> list[tuple]:
    """(start, end, arm text, line text) of each arm of `path`, where start and
    end are the (line, column) bounds of its source."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.IfExp):
            operands = [node.body, node.orelse]
        elif isinstance(node, ast.BoolOp):
            operands = node.values[1:]
        else:
            continue
        for arm in operands:
            found.append(((arm.lineno, arm.col_offset), (arm.end_lineno, arm.end_col_offset),
                          " ".join(ast.get_source_segment(source, arm).split()),
                          text[arm.lineno - 1].strip()))
    return sorted(found)


def arm_offsets(code, spans) -> dict[int, list]:
    """Instruction offset of `code` -> indices of the `spans` its position lies in."""
    offsets = {}
    for unit, (line, end_line, col, end_col) in enumerate(code.co_positions()):
        if None in (line, end_line, col, end_col):
            continue
        inside = [i for i, (start, end) in enumerate(spans)
                  if start <= (line, col) and (end_line, end_col) <= end]
        if inside:
            offsets[2 * unit] = inside
    return offsets


def main(argv) -> int:
    files = {str(p): p for p in sorted(PACKAGE.rglob("*.py"))}
    hits = {name: set() for name in files}
    file_arms = {name: arms(path) for name, path in files.items()}
    arm_hits = {name: set() for name in files}
    by_code = {}                          # code object -> (line hits, arm offsets left, arm hits)

    def tracer(frame, event, arg):
        code = frame.f_code
        info = by_code.get(code, False)
        if info is False:
            name = code.co_filename
            info = None
            if name in hits:
                spans = [(start, end) for start, end, _, _ in file_arms[name]]
                info = (hits[name], arm_offsets(code, spans), arm_hits[name])
            by_code[code] = info
        if info is None:
            return None
        lines, left, evaluated = info

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            elif event == "opcode":
                ids = left.pop(frame.f_lasti, None)
                if ids is not None:
                    evaluated.update(ids)
                    # an instruction all of whose arms have run can show nothing more
                    for offset in [o for o, held in left.items() if evaluated.issuperset(held)]:
                        del left[offset]
                elif not left:
                    frame.f_trace_opcodes = False   # every arm of this code has run
            return local
        if left:
            frame.f_trace_opcodes = True
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
        gaps = [(line, text) for line, text in statements(path).items()
                if line not in hits[name]]
        gaps += [(line, f"arm `{arm}` of: {text}")
                 for i, ((line, _), _, arm, text) in enumerate(file_arms[name])
                 if i not in arm_hits[name]]
        for line, text in sorted(gaps):
            if (rel, text) in ALLOWED:
                unused.discard((rel, text))
                continue
            missed += 1
            print(f"src/vanetbench/{rel}:{line}: {text}")
    for rel, text in sorted(unused):
        print(f"allowlisted but not unexecuted: src/vanetbench/{rel}: {text}")
    print(f"{missed} unexecuted statements and arms outside the allowlist")
    return 1 if missed or unused else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
