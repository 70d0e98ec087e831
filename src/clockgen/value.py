"""The bases of the package's record and value types.

A record type is a plain class that writes its own ``__init__``: the
parameters of that ``__init__`` are its fields.  :class:`Record` gives it
the ``Name(field=value, ...)`` repr and equality between instances of one
class whose fields are equal, which leaves it unhashable.  :class:`Value`
adds a hash of the fields and refuses to assign or delete an attribute; a
value type's ``__init__`` runs its checks, then stores each field with
:data:`setfield`.  Fields are plain instance attributes, so ``vars()``
and ``functools.cached_property`` work, unless a class keeps them in
``__slots__``.

``dataclasses`` would generate the same methods, but importing it loads
``inspect``, ``ast`` and ``dis``, and each decorated class compiles its
generated code: time that every command-line run would pay at start-up.
"""

from __future__ import annotations

from operator import attrgetter

# stores a field past a value type's refusing __setattr__.  Not through
# self.__dict__: making that dict slows every later attribute read (about
# 4x on CPython 3.11) and adds about 64 bytes to the instance
setfield = object.__setattr__


class Record:
    """Repr and equality by the fields, the parameters of ``__init__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            init = cls.__init__.__code__
            cls._fields = init.co_varnames[1:init.co_argcount]
            # one C call that reads every field, in order
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"


class Value(Record):
    """A frozen record: hashable, and no attribute can be assigned or
    deleted once ``__init__`` has stored the fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
