"""Print the code lines of each module of a package directory and their total.

A code line holds a token of a statement other than a docstring; comments,
blank lines and docstrings do not count.  A statement made of string
literals only counts as a docstring.

    python3 tools/code_lines.py            # src/ditsp
    python3 tools/code_lines.py DIR
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Number of code lines in one Python source file."""
    lines = set()
    statement = []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return len(lines)


def main() -> int:
    default = Path(__file__).parent.parent / "src" / "ditsp"
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
