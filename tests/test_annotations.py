"""Every dataclass annotation in ``repro`` resolves at runtime.

With ``from __future__ import annotations`` each field annotation is a
string that nothing evaluates until someone asks -- ``typing``'s
``get_type_hints``, ``dataclasses`` consumers, a static checker.  A typo
such as ``"._Node | None"`` therefore imports fine and only fails there.
This walks the whole package and resolves the annotations of every
dataclass, the annotation half of a static type check.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue  # importing it runs the CLI
        yield importlib.import_module(info.name)


def _dataclasses():
    found = {}
    visited = set()

    def visit(namespace, module_name):
        # Classes nested in classes count too; ``visited`` stops cycles.
        for obj in list(vars(namespace).values()):
            if (inspect.isclass(obj) and obj.__module__ == module_name
                    and obj not in visited):
                visited.add(obj)
                if dataclasses.is_dataclass(obj):
                    found[f"{module_name}.{obj.__qualname__}"] = obj
                visit(obj, module_name)

    for module in _modules():
        visit(module, module.__name__)
    return found


def test_every_dataclass_annotation_resolves():
    classes = _dataclasses()
    assert len(classes) >= 60, sorted(classes)  # the walk reaches the tree
    failures = {}
    for name, cls in sorted(classes.items()):
        try:
            typing.get_type_hints(cls)
        except Exception as exc:  # report every kind of failure
            failures[name] = f"{type(exc).__name__}: {exc}"
    assert not failures, failures
