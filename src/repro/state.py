"""The component state protocol (gem5's SimObject serialize contract).

Every component that owns mutable simulated state is :class:`Stateful`
and declares that state beside its ``register_stats()``: plain
attributes in ``STATE_FIELDS`` (a dataclass contributes every field not
named in ``TRANSIENT``, so a new field is captured by default), nested
components in ``STATE_CHILDREN``. Anything else — keyed containers,
non-JSON values — a component adds by extending the two methods. The
checkpointer (:mod:`repro.checkpoint`) only walks the tree.

State is plain JSON data: a bytearray field travels as hex and a dict
field as its ``[key, value]`` pairs in insertion order (JSON objects
would turn integer keys into strings).

Restore writes the instance ``__dict__`` directly, so no property setter
or MMIO handler can run and golden register-traffic counters restore
verbatim; naming a property in ``STATE_FIELDS`` fails with ``KeyError``.
"""

import dataclasses
from operator import attrgetter


def _plain(value):
    if isinstance(value, bytearray):
        return value.hex()
    if isinstance(value, dict):
        return [[key, item] for key, item in value.items()]
    return value


class Stateful:
    STATE_FIELDS = ()
    STATE_CHILDREN = ()  # attribute paths, restored in this order
    TRANSIENT = ()

    @classmethod
    def state_fields(cls):
        if dataclasses.is_dataclass(cls):
            return tuple(field.name for field in dataclasses.fields(cls)
                         if field.name not in cls.TRANSIENT)
        return cls.STATE_FIELDS

    def get_state(self):
        """This component's state as plain JSON data."""
        values = vars(self)
        state = {name: _plain(values[name]) for name in self.state_fields()}
        for path in self.STATE_CHILDREN:
            state[path] = attrgetter(path)(self).get_state()
        return state

    def set_state(self, state):
        """Overwrite this freshly constructed component from
        :meth:`get_state` output; a missing key raises ``KeyError``."""
        values = vars(self)
        for name in self.state_fields():
            value = state[name]
            if isinstance(values[name], bytearray):
                value = bytearray.fromhex(value)
            elif isinstance(values[name], dict):
                value = dict(value)
            values[name] = value
        for path in self.STATE_CHILDREN:
            attrgetter(path)(self).set_state(state[path])
