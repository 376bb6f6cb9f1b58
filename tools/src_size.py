"""Print the size of the ``adctr`` library: its line count and its number of
settable values.

Lines are those of ``src/adctr/*.py``, as ``wc -l`` counts them. Settable
values are every parameter with a default other than ``self`` or ``cls`` (in
functions, methods and lambdas), plus every field with a default in a class
decorated with ``@dataclass``, found through the AST.

Usage: python3 tools/src_size.py [checkout]    (default: this checkout)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            count += sum(a.arg not in ("self", "cls") for a in defaulted)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "adctr").glob("*.py"))
    if not files:
        print(f"{root}: no src/adctr/*.py", file=sys.stderr)
        return 1
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    values = sum(settable_values(ast.parse(f.read_text(encoding="utf-8"), str(f)))
                 for f in files)
    print(f"lines {lines}")
    print(f"settable_values {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
