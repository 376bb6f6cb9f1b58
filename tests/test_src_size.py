"""``tools/src_size.py``, the library size metric: its settable-value count on
a small source text, and its total and per-module output lines on this
checkout and on a small tree."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_size", ROOT / "tools" / "src_size.py")
src_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_size)

SOURCE = '''
import dataclasses
from dataclasses import dataclass, field


def f(a, b=1, *args, c, d=2, e=None, **kw):  # b, d, e
    def inner(x=0):  # x
        return x


class C:
    def m(self=None, x=0):  # x; self is not settable
        pass

    @classmethod
    def n(cls=None, y=1, /, z=2):  # y, z; nor is cls
        pass

    async def a(self, w=3):  # w
        pass


g = lambda p, q=3, *, r, s=4: p  # q, s


@dataclass
class D:
    a: int
    b: int = 0                                  # b
    c: list = field(default_factory=list)       # c
    d = 5                                       # not a field


@dataclasses.dataclass(frozen=True)
class E:
    x: int = 1                                  # x


class F:  # not a dataclass
    y: int = 2
'''


def test_settable_values_counts_defaults_and_dataclass_fields():
    # f: 3, inner: 1, m: 1, n: 2, a: 1, the lambda: 2, D: 2, E: 1
    assert src_size.settable_values(ast.parse(SOURCE)) == 13


def test_main_prints_the_line_and_settable_value_counts_of_the_library(capsys):
    assert src_size.main(["src_size.py", str(ROOT)]) == 0
    out = capsys.readouterr().out.splitlines()
    files = sorted((ROOT / "src" / "adctr").glob("*.py"))
    assert [line.split(" ")[0] for line in out] == (
        ["lines", "settable_values"] + [f"lines.{f.stem}" for f in files])
    per_module = [len(f.read_text(encoding="utf-8").splitlines()) for f in files]
    values = sum(src_size.settable_values(ast.parse(f.read_text(encoding="utf-8")))
                 for f in files)
    assert out[:2] == [f"lines {sum(per_module)}", f"settable_values {values}"]
    assert out[2:] == [f"lines.{f.stem} {n}" for f, n in zip(files, per_module)]
    assert "lines.embedding" in {line.split(" ")[0] for line in out}
    assert all(n > 0 for n in per_module) and values > 0


def test_main_counts_each_module_s_lines_of_another_checkout(tmp_path, capsys):
    lib = tmp_path / "src" / "adctr"
    lib.mkdir(parents=True)
    (lib / "b.py").write_text("def f(x=1):\n    return x\n", encoding="utf-8")
    (lib / "a.py").write_text("x = 1\n\n\ny = 2", encoding="utf-8")  # no final newline
    (lib / "notes.txt").write_text("not a module\n", encoding="utf-8")
    assert src_size.main(["src_size.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "lines 5", "settable_values 1", "lines.a 3", "lines.b 2"]


def test_main_refuses_a_tree_without_the_library(tmp_path, capsys):
    assert src_size.main(["src_size.py", str(tmp_path)]) == 1
    assert "no src/adctr/*.py" in capsys.readouterr().err
