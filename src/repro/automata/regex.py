"""Regular expressions: AST, a compact concrete syntax, and NFA conversion.

The syntax is the usual POSIX-flavoured subset:

* literal characters; ``\\`` escapes metacharacters,
* character classes ``[a-z0-9_]`` with negation ``[^...]``,
* ``.`` any character of the alphabet,
* grouping ``( )``, alternation ``|``,
* postfix ``*``, ``+``, ``?``, ``{m}``, ``{m,}``, ``{m,n}``.

Expressions operate over an :class:`~repro.alphabet.Alphabet`, so symbol
sets are sets of numeric character codes.
"""

from repro import cache as _cache
from repro.alphabet import DEFAULT_ALPHABET
from repro.automata.nfa import NFA
from repro.errors import ParseError


class Regex:
    """Base class of regex AST nodes."""

    __slots__ = ()

    def to_nfa(self):
        raise NotImplementedError

    def matches(self, codes):
        return self.to_nfa().accepts(codes)


class REmpty(Regex):
    __slots__ = ()

    def to_nfa(self):
        return NFA.empty()

    def __repr__(self):
        return "(empty)"


class REps(Regex):
    __slots__ = ()

    def to_nfa(self):
        return NFA.epsilon()

    def __repr__(self):
        return "(eps)"


class RSym(Regex):
    """A set of admissible character codes at one position."""

    __slots__ = ("codes",)

    def __init__(self, codes):
        self.codes = frozenset(codes)

    def to_nfa(self):
        return NFA.from_symbols(sorted(self.codes))

    def __repr__(self):
        return "[%s]" % ",".join(map(str, sorted(self.codes)))


class RConcat(Regex):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def to_nfa(self):
        result = NFA.epsilon()
        for part in self.parts:
            result = result.concat(part.to_nfa())
        return result

    def __repr__(self):
        return "".join(map(repr, self.parts))


class RUnion(Regex):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def to_nfa(self):
        result = self.parts[0].to_nfa()
        for part in self.parts[1:]:
            result = result.union(part.to_nfa())
        return result

    def __repr__(self):
        return "(%s)" % "|".join(map(repr, self.parts))


class RRepeat(Regex):
    """Between *low* and *high* repetitions; ``high=None`` is unbounded."""

    __slots__ = ("inner", "low", "high")

    def __init__(self, inner, low, high):
        self.inner = inner
        self.low = low
        self.high = high

    def to_nfa(self):
        return self.inner.to_nfa().repeat(self.low, self.high)

    def __repr__(self):
        if (self.low, self.high) == (0, None):
            return "%r*" % self.inner
        if (self.low, self.high) == (1, None):
            return "%r+" % self.inner
        if (self.low, self.high) == (0, 1):
            return "%r?" % self.inner
        return "%r{%s,%s}" % (self.inner, self.low,
                              "" if self.high is None else self.high)


_META = set("()[]|*+?{}.\\")


class _RegexParser:
    def __init__(self, text, alphabet):
        self.text = text
        self.pos = 0
        self.alphabet = alphabet

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self):
        c = self.peek()
        if c is None:
            raise ParseError("unexpected end of regex", self.pos)
        self.pos += 1
        return c

    def parse(self):
        node = self.alternation()
        if self.pos != len(self.text):
            raise ParseError("trailing characters in regex", self.pos)
        return node

    def alternation(self):
        parts = [self.concatenation()]
        while self.peek() == "|":
            self.take()
            parts.append(self.concatenation())
        return parts[0] if len(parts) == 1 else RUnion(parts)

    def concatenation(self):
        parts = []
        while self.peek() is not None and self.peek() not in ")|":
            parts.append(self.postfix())
        if not parts:
            return REps()
        return parts[0] if len(parts) == 1 else RConcat(parts)

    def postfix(self):
        node = self.atom()
        while True:
            c = self.peek()
            if c == "*":
                self.take()
                node = RRepeat(node, 0, None)
            elif c == "+":
                self.take()
                node = RRepeat(node, 1, None)
            elif c == "?":
                self.take()
                node = RRepeat(node, 0, 1)
            elif c == "{":
                self.take()
                node = self.braces(node)
            else:
                return node

    def braces(self, node):
        low = self.number()
        high = low
        if self.peek() == ",":
            self.take()
            high = None if self.peek() == "}" else self.number()
        if self.take() != "}":
            raise ParseError("expected '}' in repetition", self.pos)
        if high is not None and high < low:
            raise ParseError("bad repetition bounds", self.pos)
        return RRepeat(node, low, high)

    def number(self):
        digits = ""
        while self.peek() is not None and self.peek().isdigit():
            digits += self.take()
        if not digits:
            raise ParseError("expected a number", self.pos)
        return int(digits)

    def atom(self):
        c = self.take()
        if c == "(":
            node = self.alternation()
            if self.take() != ")":
                raise ParseError("expected ')'", self.pos)
            return node
        if c == "[":
            return self.char_class()
        if c == ".":
            return RSym(self.alphabet.codes())
        if c == "\\":
            return RSym([self.alphabet.code(self.take())])
        if c in _META:
            raise ParseError("unexpected metacharacter %r" % c, self.pos - 1)
        return RSym([self.alphabet.code(c)])

    def char_class(self):
        negated = False
        if self.peek() == "^":
            self.take()
            negated = True
        codes = set()
        first = True
        while True:
            c = self.peek()
            if c is None:
                raise ParseError("unterminated character class", self.pos)
            if c == "]" and not first:
                self.take()
                break
            first = False
            c = self.take()
            if c == "\\":
                c = self.take()
            low = self.alphabet.code(c)
            if self.peek() == "-" and self.pos + 1 < len(self.text) \
                    and self.text[self.pos + 1] != "]":
                self.take()
                hi_char = self.take()
                if hi_char == "\\":
                    hi_char = self.take()
                # Ranges follow the natural order of the underlying
                # characters, not the numeric codes, so expand via chars.
                lo_ord, hi_ord = ord(self.alphabet.char(low)), ord(hi_char)
                if hi_ord < lo_ord:
                    raise ParseError("bad character range", self.pos)
                for o in range(lo_ord, hi_ord + 1):
                    codes.add(self.alphabet.code(chr(o)))
            else:
                codes.add(low)
        if negated:
            codes = set(self.alphabet.codes()) - codes
        return RSym(codes)


def parse_regex(text, alphabet=DEFAULT_ALPHABET):
    """Parse the compact regex syntax into a :class:`Regex`."""
    return _RegexParser(text, alphabet).parse()


_COMPILE_CACHE = _cache.LRUCache("regex.compile", 512)


def regex_to_nfa(text_or_regex, alphabet=DEFAULT_ALPHABET):
    """Parse (if needed) and convert to a trimmed epsilon-free NFA.

    Compilation of a pattern string is memoized per alphabet: benchmark
    suites and repeated solver calls compile the same membership
    patterns over and over, and the resulting NFA is immutable.
    """
    if not isinstance(text_or_regex, str):
        return text_or_regex.to_nfa().without_epsilon().trim()
    key = (text_or_regex, alphabet.signature())
    cached = _COMPILE_CACHE.get(key)
    if cached is not _cache.MISSING:
        return cached
    regex = parse_regex(text_or_regex, alphabet)
    result = regex.to_nfa().without_epsilon().trim()
    _COMPILE_CACHE.put(key, result)
    return result
