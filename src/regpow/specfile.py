"""Line-oriented ideal-spec files: `ring <name>+`, optional `quot <monomial>+`, `ideal <monomial>+`.

`#` starts a comment; monomials use the `var^k*...` syntax.  A variable
name is any run of non-space characters other than `1` that has no `*`,
`^` or `#`, so that every monomial can be written back.  Serialized
output is canonical: minimal generators in sorted order, one space
between tokens, so serialize(parse(serialize(X))) == serialize(X).
"""
from __future__ import annotations

import re

from .monomials import MonomialSyntaxError, RingSpec, _check_variable, ideal, parse_monomial, zero_ideal
from .regfun import PresentedIdeal


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


def _tokenize(raw: str):
    """(token, 1-based column) pairs of one line, with the trailing comment stripped."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", raw.partition("#")[0])]


def parse_spec(text: str) -> PresentedIdeal:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if tokens:
            lines.append((lineno, tokens))
    if not lines:
        raise ParseError("empty spec file", 1, 1)

    def expect(index, keyword):
        if index >= len(lines):
            raise ParseError(f"missing {keyword!r} line", lines[-1][0] + 1, 1)
        lineno, tokens = lines[index]
        if tokens[0][0] != keyword:
            raise ParseError(
                f"expected {keyword!r}, found {tokens[0][0]!r}", lineno, tokens[0][1]
            )
        if len(tokens) == 1:
            raise ParseError(f"empty {keyword!r} line", lineno, tokens[0][1])
        return lineno, tokens[1:]

    lineno, name_tokens = expect(0, "ring")
    names = [tok for tok, _ in name_tokens]
    for k, (tok, col) in enumerate(name_tokens):
        if tok in names[:k]:
            raise ParseError("duplicate variable name", lineno, col)
    for tok, col in name_tokens:
        try:
            _check_variable(tok)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, col) from exc
    ring = RingSpec(tuple(names))

    def parse_gens(lineno, tokens):
        gens = []
        for tok, col in tokens:
            try:
                gens.append(parse_monomial(ring, tok))
            except MonomialSyntaxError as exc:
                raise ParseError(str(exc), lineno, col) from exc
        return gens

    index = 1
    quot = zero_ideal(ring)
    if index < len(lines) and lines[index][1][0][0] == "quot":
        lineno, tokens = expect(index, "quot")
        quot = ideal(ring, parse_gens(lineno, tokens))
        index += 1
    lineno, tokens = expect(index, "ideal")
    lift = ideal(ring, parse_gens(lineno, tokens))
    index += 1
    if index < len(lines):
        extra_lineno, extra_tokens = lines[index]
        raise ParseError(
            f"unexpected line {extra_tokens[0][0]!r}", extra_lineno, extra_tokens[0][1]
        )
    return PresentedIdeal(quot, lift)


def serialize(presented: PresentedIdeal) -> str:
    ring = presented.ring
    out = ["ring " + " ".join(ring.variables)]
    if not presented.quot.is_zero():
        out.append("quot " + " ".join(str(g) for g in presented.quot.gens))
    out.append("ideal " + " ".join(str(g) for g in presented.lift.gens))
    return "\n".join(out) + "\n"
