"""The base of the records that validate or cache; the others are `typing.NamedTuple`s.

Not frozen dataclasses: importing `dataclasses` imports `inspect`, `ast`, `dis` and
`tokenize`, and the methods it generates at import cost more than a short `compute`.
"""


class Record:
    """Compared, hashed and shown by the attributes named in `_fields`, in that order.

    Constructors set attributes by `object.__setattr__`, which keeps them inline, fastest to
    read, or by writing `__dict__`, fastest to build; assigning or deleting one afterwards
    raises AttributeError.  `__dict__` also holds what a `cached_property` caches.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
