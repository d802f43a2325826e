"""The orbit sum, f_n by a second route: |GL_n| / prod |GL_(t_i)| over the eligible tuples
t >= 0 of weight sum t_i d_i = n (lex order, one per orbit); |GL_k| = prod_(i<k) (q^k - q^i).
"""

from functools import cache, reduce
from itertools import product, zip_longest

from glhom import IntPolynomial


def mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for (i, x), (j, y) in product(enumerate(a), enumerate(b)):
        out[i + j] += x * y
    return out


def div_exact(num: list[int], den: list[int]) -> list[int]:
    """num / den in Z[q], for trimmed lists; ArithmeticError unless den divides num."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    rem, quot = list(num), [0] * max(len(num) - len(den) + 1, 0)
    for k in reversed(range(len(quot))):
        quot[k] = rem[k + len(den) - 1] // den[-1]  # a residue here outlives every later step
        for j, d in enumerate(den):
            rem[k + j] -= quot[k] * d
    if any(rem):
        raise ArithmeticError("polynomial division left a remainder")
    return quot


@cache
def gl_order(n: int) -> tuple[int, ...]:
    out = [1]
    for i in range(n):
        out = [hi - lo for hi, lo in zip([0] * n + out, [0] * i + out + [0] * (n - i))]
    return tuple(out)


def eligible_tuples(profile, n: int) -> tuple[tuple[int, ...], ...]:
    degrees, out, stack = profile.degrees, [], [((), n)]
    while stack:
        head, left = stack.pop()
        d, rest = degrees[len(head)], len(degrees) - len(head)
        if rest > 1 and left:
            stack += [(head + (k,), left - k * d) for k in range(left // d, -1, -1)]
        elif left % d == 0:  # left // d on this coordinate, 0 on any after it
            out.append(head + (left // d,) + (0,) * (rest - 1))
    return tuple(out)


def orbit_poly(profile, t: tuple[int, ...]) -> IntPolynomial:
    n = sum(e * d for e, d in zip(t, profile.degrees))
    return IntPolynomial(div_exact(gl_order(n), reduce(mul, map(gl_order, t), [1])))


def orbit_sum(profile, n: int) -> IntPolynomial:
    orbits = [orbit_poly(profile, t).coefficients for t in eligible_tuples(profile, n)]
    return IntPolynomial(map(sum, zip_longest(*orbits, fillvalue=0)))
