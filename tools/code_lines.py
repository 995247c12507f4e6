"""Print the code lines of each module of a package directory, and their total.

A code line is a non-blank line of the module as ast.unparse writes it
back without its docstrings (module, class and function), so comments,
docstrings, blank lines and line wrapping do not count, and a statement
split over several lines counts as one.

    python3 tools/code_lines.py [DIRECTORY]    # default: src/expspec
"""

import ast
import sys
from pathlib import Path


def code_lines(source):
    """The number of code lines of a module's source text."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if documented and ast.get_docstring(node, clean=False) is not None:
            node.body = node.body[1:] or [ast.Pass()]
    return sum(1 for line in ast.unparse(tree).splitlines() if line.strip())


def main(directory):
    total = 0
    for path in sorted(Path(directory).glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/expspec")
