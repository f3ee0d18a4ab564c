"""The one base of bimop's frozen value classes.

A record class lists its fields as annotations, in order, as a dataclass
would.  ``Record.__init_subclass__`` reads them and gives the class its
``__init__``, ``==``, ``hash`` and ``repr`` as closures over the field
names; no source is generated or compiled, so a record class costs
microseconds to create.
"""

from operator import attrgetter

from .errors import FrozenInstanceError

_set = object.__setattr__


class Record:
    """A frozen value: its fields are its class's own annotations.

    - The fields are passed by position or keyword.  A class attribute named
      as a field is its default; a list or dict default is copied for each
      instance, so no two instances share one.  ``__post_init__`` runs last
      when the class has one.
    - A field whose name starts with an underscore, a cache, is left out of
      ``==``, ``hash`` and ``repr``.  The other fields make them, as the
      tuple of their values would: records are equal when they are of one
      class with equal fields.
    - Assigning or deleting an attribute raises FrozenInstanceError.
    """

    def __init_subclass__(cls):
        fields = tuple(cls.__annotations__)
        defaults = {f: vars(cls)[f] for f in fields if f in vars(cls)}
        required = set(fields) - defaults.keys()
        arity = len(fields)
        numbered = tuple(enumerate(fields))  # a loop over range() is slower
        post_init = getattr(cls, "__post_init__", None)
        shown = tuple(f for f in fields if not f.startswith("_"))
        values = attrgetter(*shown)  # a tuple, or the value of a single field
        single = len(shown) == 1
        text = f"{cls.__qualname__}({', '.join(f + '=%r' for f in shown)})"

        def bind(args, kwargs):
            """The values of the fields, in order, from a call that names
            fields or leaves some to their defaults."""
            given = dict(zip(fields, args), **kwargs)
            # Arguments past the last field, or a field given twice, leave given short.
            if len(given) < len(args) + len(kwargs) or not set(fields) >= given.keys() >= required:
                raise TypeError(f"{cls.__name__}() takes the fields {fields}, "
                                f"those of {tuple(defaults)} optional")
            for f in set(fields) - given.keys():
                default = defaults[f]
                given[f] = default.copy() if isinstance(default, (list, dict)) else default
            return [given[f] for f in fields]

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != arity:
                args = bind(args, kwargs)
            for i, name in numbered:
                _set(self, name, args[i])
            if post_init is not None:
                post_init(self)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        def __hash__(self):
            return hash((values(self),) if single else values(self))

        def __repr__(self):
            return text % ((values(self),) if single else values(self))

        cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
