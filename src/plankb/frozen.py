"""The base of the package's frozen slotted value types."""


class Frozen:
    """Refuses assignment, prints as `Name(field=value, ...)` and copies and
    pickles through `__init__`, over the field names a subclass lists in
    `_fields`.

    A subclass sets its slots in an `__init__` of its own, through the
    slots' setters or `object.__setattr__`, and writes its `__eq__` and
    `__hash__` over named attributes: the graph writer and grounding hash
    these values in hot loops, where a loop over `_fields` would cost more.
    `__hash__` is the hash of the field tuple, so sets of values iterate as
    sets of those tuples do.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field {!r}".format(name))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field {!r}".format(name))

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__qualname__, ", ".join(
            "{}={!r}".format(name, getattr(self, name)) for name in self._fields))

    def __reduce__(self):
        # The default state restore sets each slot, which __setattr__ refuses.
        return type(self), tuple([getattr(self, name) for name in self._fields])
