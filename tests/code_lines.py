"""Count the code lines of Python modules.

A line counts when it holds a token other than a comment or a docstring,
and a docstring is a string literal that is a whole statement.  So blank
lines, comment lines and docstrings count for nothing, and a statement that
spans lines counts every line a token of it sits on.  Uses only the
standard library's ``tokenize``.

    python tests/code_lines.py src/airfair

prints one count per module, in path order, and their total.
"""

import io
import sys
import tokenize
from pathlib import Path

#: tokens that hold no code: layout, comments and the stream's ends
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token other than a
    comment or a docstring."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []    # the code tokens of the logical line so far
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not all(t.type == tokenize.STRING for t in statement):    # else a docstring, or nothing
                lines.update(row for t in statement for row in range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    paths = sorted(p for arg in argv for p in (Path(arg).rglob("*.py") if Path(arg).is_dir() else [Path(arg)]))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["src/airfair"]))
