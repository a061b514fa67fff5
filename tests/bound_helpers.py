"""Test-only references over the bound table."""

from fractions import Fraction


def strong_supports(t):
    """The support vertices of t with two or more leaf neighbors."""
    return {v for v in t.support_set if sum(w in t.leaf_set for w in t.adjacency[v]) >= 2}


def fraction_table_violations(n, l, k, iota, regime):
    """The active piecewise-table row for a tree of order n >= 3 with l
    leaves that is not a star, iota = iota_k and the given regime label,
    written with Fractions: human-readable violations, empty when the
    row holds."""
    io = Fraction(iota)
    plus4 = Fraction(n + l, 4)
    minus2 = Fraction(n - l, 2)
    violations = []

    def check(cond, text):
        if not cond:
            violations.append(f"[{regime}] {text}")

    if k == 1:
        third = Fraction(n, 3)
        if regime == "ℓ < n/3":
            check(io <= plus4, f"iota={iota} > (n+l)/4={plus4}")
            check(plus4 < third, f"(n+l)/4={plus4} not < n/3={third}")
        elif regime == "ℓ = n/3":
            check(plus4 == minus2 == third, f"(n+l)/4={plus4}, (n-l)/2={minus2}, n/3={third} differ")
            check(io <= third, f"iota={iota} > n/3={third}")
        else:
            check(io <= minus2, f"iota={iota} > (n-l)/2={minus2}")
            check(minus2 < third, f"(n-l)/2={minus2} not < n/3={third}")
        return violations

    star = Fraction(n + l, 2 * k + 1)
    caro = Fraction(n, k + 2)
    if regime == "ℓ < (k-1)n/(k+2)":
        check(io <= star, f"iota={iota} > (n+l)/(2k+1)={star}")
        check(star < caro, f"(n+l)/(2k+1)={star} not < n/(k+2)={caro}")
    elif regime == "ℓ = (k-1)n/(k+2)":
        check(star == caro, f"(n+l)/(2k+1)={star} != n/(k+2)={caro}")
        check(io <= star, f"iota={iota} > (n+l)/(2k+1)={star}")
    elif regime == "(k-1)n/(k+2) < ℓ < kn/(k+2)":
        check(io <= caro, f"iota={iota} > n/(k+2)={caro}")
    elif regime == "ℓ = kn/(k+2)":
        check(minus2 == caro, f"(n-l)/2={minus2} != n/(k+2)={caro}")
        check(io <= minus2, f"iota={iota} > (n-l)/2={minus2}")
    else:
        check(io <= minus2, f"iota={iota} > (n-l)/2={minus2}")
        check(minus2 < caro, f"(n-l)/2={minus2} not < n/(k+2)={caro}")
    return violations
