"""The base of forge's mutable result records: a search outcome, a
simplified presentation, an encoding trace, a link, a built complex and a
run report.  Each is a plain class whose __init__ sets its fields in order."""


class Record:
    """Two records of one class are equal when their fields are; a record
    is unhashable, as its fields may change, and its repr names each field
    in order."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"
