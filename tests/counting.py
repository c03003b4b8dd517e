"""A stand-in for numpy that logs every call a module makes through its `np` name.

The array-call budgets of the hot paths install it with
monkeypatch.setattr(module, "np", CountingNumpy(calls)).  A call of a numpy
function, ufunc, ufunc method (np.add.reduce) or submodule function
(np.linalg.norm) appends its dotted name to `calls`; ndarray methods and
operators are not seen.
"""

import types

import numpy as np


class _Counted:
    """A numpy callable or submodule whose calls, and whose callable attributes' calls, are logged."""

    def __init__(self, target, name: str, calls: list):
        self._target, self._name, self._calls = target, name, calls

    def __call__(self, *args, **kw):
        self._calls.append(self._name)
        return self._target(*args, **kw)

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if isinstance(value, type) or not (callable(value) or isinstance(value, types.ModuleType)):
            return value
        return _Counted(value, f"{self._name}.{attr}" if self._name else attr, self._calls)


class CountingNumpy(_Counted):
    def __init__(self, calls: list):
        super().__init__(np, "", calls)
