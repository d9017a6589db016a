"""A fixed run of `build_instance` over random inputs from the documented domain.

    PYTHONPATH=src python3 tools/domain_corpus.py

The inputs come from `numpy.random.default_rng(7)`: 400 polynomials of
degree 2..12 with complex normal coefficients, half of them at unit scale and
half ("wide") with each coefficient also scaled by 10^uniform(-4, 4); about
30% have real coefficients, and in about 30% both endpoints are real.  Every
input is kept, whatever happens to it, and classed as `ok`, the name of the
typed error it raises, `RuntimeWarning` (warnings are errors, as in the
tests), `timeout` (more than TIMEOUT_S seconds) or `untyped:<name>` for any
other exception.  The output is one JSON line per (scale, class) with its
count.  The draws per input are made in a fixed order, so that the corpus
does not change when the program does.
"""

from __future__ import annotations

import json
import signal
import sys
import warnings
from collections import Counter

import numpy as np

from polymoment.errors import MomentProblemError
from polymoment.poly import ComplexPoly
from polymoment.solver import build_instance

COUNT = 400
TIMEOUT_S = 30


class _Timeout(BaseException):
    """Not an Exception, so that no handler in the program can swallow it."""


def inputs():
    """(index, scale, P, a, b) for each input."""
    rng = np.random.default_rng(7)
    for i in range(COUNT):
        n = int(rng.integers(2, 13))
        wide = rng.random() < 0.5
        c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        if wide:
            c = c * 10 ** rng.uniform(-4, 4, size=n + 1)
        if rng.random() < 0.3:
            c = c.real
        a, b = (complex(rng.normal(), rng.normal()) for _ in range(2))
        if rng.random() < 0.3:
            a, b = complex(a.real), complex(b.real)
        yield i, "wide" if wide else "unit", ComplexPoly(c.tolist()), a, b


def _alarm(signum, frame):
    raise _Timeout


def build(P: ComplexPoly, a: complex, b: complex):
    """The class of one input and its instance (None unless `ok`)."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(TIMEOUT_S)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return "ok", build_instance(P, a, b)
    except _Timeout:
        return "timeout", None
    except MomentProblemError as exc:
        return type(exc).__name__, None
    except RuntimeWarning:
        return "RuntimeWarning", None
    except Exception as exc:
        return f"untyped:{type(exc).__name__}", None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def main() -> int:
    counts = Counter()
    for _, scale, P, a, b in inputs():
        counts[scale, build(P, a, b)[0]] += 1
    for (scale, cls), count in sorted(counts.items()):
        print(json.dumps({"scale": scale, "class": cls, "count": count}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
