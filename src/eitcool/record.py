"""Immutable value records whose classes, unlike frozen dataclasses, generate no code.

A record's ``__init__`` checks its arguments and sets its ``__slots__`` once (``_set``);
``_replace`` goes through ``__init__``, so the checks run on every construction
path.  Records with no checks are ``typing.NamedTuple``s, with the same ``_replace``.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields' values in slot order; attrgetter of one field returns it bare
        get = attrgetter(*cls.__slots__)
        cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self.__slots__, self._values), **changes))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: use _replace")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):  # copy and pickle through __init__, as _replace does
        return type(self), self._values

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values))
        return f"{type(self).__name__}({fields})"
