"""Fresh-name generation shared by the core pipeline.

All internal variables carry a leading marker so they can never collide
with user-chosen string/integer variable names, and so model printers can
filter them out.
"""


class NameFactory:
    """Monotone counter-based fresh-name source."""

    def __init__(self, marker="$"):
        self._marker = marker
        self._counter = 0

    def fresh(self, kind):
        self._counter += 1
        return "%s%s%d" % (self._marker, kind, self._counter)

    def char_namer(self, string_var):
        """A nullary namer for the character variables of one string var."""
        def namer():
            self._counter += 1
            return "%sv.%s.%d" % (self._marker, string_var, self._counter)
        return namer

    def is_internal(self, name):
        return name.startswith(self._marker)
