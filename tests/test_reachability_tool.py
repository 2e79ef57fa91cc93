"""``tools/reachability.py`` ties a code object the profile hook saw to
its AST ``def`` by file, first line and name. The first line of a
decorated function's code object is its first decorator's line; this
checks the tool's ``defs`` agrees with the compiler on the running
interpreter, for plain, nested, decorated and async defs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reachability.py"

SOURCE = '''\
import functools


def plain():
    def inner():
        pass
    return inner


class Box:
    @property
    def size(self):
        return 1

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def cached(
        value,
    ):
        return value

    async def later(self):
        pass
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def function_codes(code):
    for const in code.co_consts:
        if hasattr(const, "co_firstlineno"):
            if const.co_name != "Box":  # a class body, not a def
                yield const.co_firstlineno, const.co_name
            yield from function_codes(const)


def test_defs_key_every_function_by_its_code_objects_first_line(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    found = load_tool().defs(path)
    assert set(found) == set(function_codes(compile(SOURCE, str(path),
                                                    "exec")))
    assert found[4, "plain"] == ("plain", 4, None)
    assert found[5, "inner"] == ("plain.inner", 2, (4, "plain"))
    assert found[11, "size"] == ("Box.size", 3, None)
    assert found[15, "cached"] == ("Box.cached", 6, None)
    assert found[22, "later"] == ("Box.later", 2, None)
