"""Count the options and result fields of the library's public names, the
CLI's flags and the environment variables the package reads.

    python3 tools/option_count.py SRC_DIR

SRC_DIR is the directory that holds the ``beltrami_lab`` package (``src``
in a checkout).  For every name in the ``__all__`` of ``numerics``,
``radial``, ``dilatation``, ``solver`` and ``verify`` it lists

* every field of a dataclass,
* every defaulted parameter of a function, and of the constructor of a
  class that is not a dataclass,
* every defaulted parameter of a public method (class methods included)
  that the class defines itself.

then the flags of each subcommand of ``cli``, and then the environment
variables read through ``os.environ.get`` or ``os.getenv`` anywhere in the
package.  One line per item; each of the three lists ends with its own
total.  Two checkouts compare with one ``diff``.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import pathlib
import sys

MODULES = ("numerics", "radial", "dilatation", "solver", "verify")


def _defaulted(fn) -> list:
    params = inspect.signature(fn).parameters.values()
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def _class_items(label: str, cls) -> list:
    if dataclasses.is_dataclass(cls):
        items = [f"{label}.{f.name}" for f in dataclasses.fields(cls)]
    elif "__init__" in vars(cls):
        items = [f"{label}({p})" for p in _defaulted(cls.__init__)]
    else:
        items = []
    for key, attr in vars(cls).items():
        if isinstance(attr, (classmethod, staticmethod)):
            attr = attr.__func__
        if not key.startswith("_") and inspect.isfunction(attr):
            items += [f"{label}.{key}({p})" for p in _defaulted(attr)]
    return items


def option_list() -> list:
    items = []
    for module in MODULES:
        mod = importlib.import_module(f"beltrami_lab.{module}")
        for name in mod.__all__:
            obj, label = getattr(mod, name), f"{module}.{name}"
            if inspect.isclass(obj):
                items += _class_items(label, obj)
            elif inspect.isfunction(obj):
                items += [f"{label}({p})" for p in _defaulted(obj)]
    return items


def flag_list() -> list:
    from beltrami_lab import cli

    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [f"cli {name} {' '.join(action.option_strings)}"
            for name, parser in sub.choices.items()
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)]


def env_list(src: str) -> list:
    items = []
    for path in sorted(pathlib.Path(src, "beltrami_lab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) in ("os.environ.get", "os.getenv")
                    and node.args and isinstance(node.args[0], ast.Constant)):
                items.append(f"env {node.args[0].value} ({path.name})")
    return items


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, argv[0])
    items = option_list()
    print("\n".join(items))
    print(f"total {len(items)}")
    flags = flag_list()
    print("\n".join(flags))
    print(f"cli total {len(flags)}")
    env = env_list(argv[0])
    print("\n".join(env))
    print(f"env total {len(env)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
