"""One digest line per build: compare two trees' tracking with one `diff`.

    PYTHONPATH=src python3 tools/monodromy_digest.py > digest.txt

For every input of `domain_corpus.inputs()` and the four golden cases of
tests/test_monodromy.py (T_6, T_12, T_24 on -+sqrt(3)/2 and the C6x3
composite), `build_instance` runs as in `domain_corpus.build`
(RuntimeWarning as an error, TIMEOUT_S per input) and one line is printed:
the index, the class, and the SHA-256 of (class, generators, g_inf, ends,
S).  Two checkouts give identical outputs exactly when every input builds
to the same class, permutations, endpoint vertices V(a), V(b) and divisor
set S.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

from domain_corpus import build, inputs

from polymoment.poly import ComplexPoly, chebyshev, compose


def golden_cases():
    """(name, P, a, b) of the golden monodromy cases."""
    s = math.sqrt(3) / 2
    for n in (6, 12, 24):
        yield f"T{n}", chebyshev(n), -s, s
    # A(B(z)) with deg A = 6, deg B = 3 and B(a) = B(b)
    a, b, beta = -0.75, 0.625, 0.25 + 0.5j
    B = ComplexPoly([0, -(a * a + a * b + b * b) - beta * (a + b), beta, 1])
    A = ComplexPoly([0.5, -1.25 + 0.5j, 0.75, 0.5 - 0.25j, -1.0, 0.25j, 1.0])
    yield "C6x3", compose(A, B), a, b


def digest(cls: str, inst) -> str:
    """SHA-256 of the class and, for a built instance, what tracking decides."""
    body = [cls]
    if inst is not None:
        md = inst.md
        body += [
            [list(g.images) for g in md.generators],
            list(md.g_inf.images),
            [[s, sorted(V)] for s, V in md.ends],
            sorted(inst.S),
        ]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def main() -> int:
    cases = [(i, P, a, b) for i, _, P, a, b in inputs()] + list(golden_cases())
    for name, P, a, b in cases:
        cls, inst = build(P, a, b)
        print(name, cls, digest(cls, inst))
    return 0


if __name__ == "__main__":
    sys.exit(main())
