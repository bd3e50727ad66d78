"""Independent verdict checker for the benchmark.

Nothing here imports forge.  Words are tuples of (generator name, sign)
letters, permutations are tuples of 0-based images, and integer matrices are
lists of rows.  Every answer forge gives is re-derived with this module's own
arithmetic or compared with an answer the input was built to have.
"""

from __future__ import annotations

import json
import math
import re


# ---------------------------------------------------------------------------
# Free-group words.


def free_reduce(letters):
    out = []
    for name, sign in letters:
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


def inverse(letters):
    return tuple((name, -sign) for name, sign in reversed(letters))


def word_text(letters):
    """The forge word grammar, one token per letter."""
    if not letters:
        return "1"
    return " ".join(name if sign > 0 else f"{name}^-1" for name, sign in letters)


def exponent_sums(letters, names):
    sums = dict.fromkeys(names, 0)
    for name, sign in letters:
        sums[name] += sign
    return [sums[name] for name in names]


# ---------------------------------------------------------------------------
# Permutations, applied left to right: the image of point i under the word
# x y is the image under y of its image under x.


def evaluate(images, letters, degree):
    """The permutation a word induces, as a tuple of images."""
    inverses = {}
    out = list(range(degree))
    for name, sign in letters:
        perm = images[name]
        if sign < 0:
            if name not in inverses:
                inv = [0] * degree
                for i, j in enumerate(perm):
                    inv[j] = i
                inverses[name] = inv
            perm = inverses[name]
        out = [perm[i] for i in out]
    return tuple(out)


def is_identity(perm):
    return all(i == j for i, j in enumerate(perm))


def order(perm):
    result = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        result = result * length // math.gcd(result, length)
    return result


def cyclic_group(perm):
    out = {tuple(range(len(perm)))}
    cur = tuple(perm)
    while cur not in out:
        out.add(cur)
        cur = tuple(perm[i] for i in cur)
    return out


CYCLE_RE = re.compile(r"\(([\d ]+)\)")


def parse_cycles(text, degree):
    """1-based disjoint cycles such as '(1 2)(3 4 5)', or 'id'."""
    perm = list(range(degree))
    if text.strip() == "id":
        return tuple(perm)
    if CYCLE_RE.sub("", text).strip():
        raise ValueError(f"bad cycle notation {text!r}")
    for body in CYCLE_RE.findall(text):
        points = [int(x) - 1 for x in body.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            perm[a] = b
    if sorted(perm) != list(range(degree)):
        raise ValueError(f"{text!r} is not a permutation of degree {degree}")
    return tuple(perm)


def witness_problems(images, degree, relators, word=None, orders=None):
    """Problems with a claimed homomorphism into the degree-n symmetric group:
    every relator must map to the identity; `word`, when given, must not;
    `orders` = (kappa, exponents, targets) requires each target's image to
    have order kappa * e_i and distinct targets' cyclic subgroups to meet
    trivially.  With neither given, some generator must map nontrivially."""
    problems = []
    for r in relators:
        if not is_identity(evaluate(images, r, degree)):
            problems.append(f"relator {word_text(r)} is not killed")
    if word is not None and is_identity(evaluate(images, word, degree)):
        problems.append(f"word {word_text(word)} dies in the witness")
    if orders is not None:
        kappa, exponents, targets = orders
        perms = [evaluate(images, t, degree) for t in targets]
        for perm, e in zip(perms, exponents):
            if order(perm) != kappa * e:
                problems.append(f"order {order(perm)} where {kappa * e} was asked")
        groups = [cyclic_group(p) for p in perms]
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if len(groups[i] & groups[j]) != 1:
                    problems.append(f"targets {i} and {j} share a nontrivial power")
    if word is None and orders is None \
            and all(is_identity(images[g]) for g in images):
        problems.append("the witness is the trivial homomorphism")
    return problems


# ---------------------------------------------------------------------------
# Abelian invariants.


def invariant_factors(matrix):
    """Nonzero invariant factors of an integer matrix, by unimodular row and
    column operations on a copy, then gcd/lcm repair of the diagonal."""
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag = []
    for t in range(min(rows, cols)):
        while True:
            pivot = min(((abs(a[i][j]), i, j) for i in range(t, rows)
                         for j in range(t, cols) if a[i][j]), default=None)
            if pivot is None:
                break
            _, i, j = pivot
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            clean = True
            for i in range(t + 1, rows):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                clean = clean and not a[i][t]
            for j in range(t + 1, cols):
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                clean = clean and not a[t][j]
            if clean:
                break
        if pivot is None:
            break
        diag.append(abs(a[t][t]))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def abelian_invariants(relators, names):
    """(betti, torsion) of the group <names | relators> made abelian."""
    matrix = [exponent_sums(r, names) for r in relators]
    factors = invariant_factors(matrix) if matrix else []
    return len(names) - len(factors), tuple(d for d in factors if d > 1)


# ---------------------------------------------------------------------------
# Verdict checks, one per request kind.  Each returns a list of problems;
# an empty list accepts the outcome.


def check_pipeline(request, outcome):
    problems = []
    if not outcome["revalidated"]:
        problems.append("certificate failed revalidation")
    names, relators = outcome["p_w"]
    if abelian_invariants(relators, names) != (0, ()):
        problems.append("output abelianization is not trivial")
    data = json.loads(outcome["json"])
    stage = data["stages"]["p_w"].splitlines()
    if stage[0].split()[1:] != list(names) or len(stage) - 1 != len(relators):
        problems.append("serialized trace does not match the output presentation")
    if data["certificate"] is None or data["certificate"]["m"] != request["m"]:
        problems.append("serialized certificate is missing or has the wrong m")
    return problems


def check_family(request, outcome):
    problems = []
    if not all(outcome["members"]):
        problems.append("a product of subgroup generators tested as a non-member")
    expected = request["expect_malnormal"]
    if expected is not None and outcome["malnormal"] != expected:
        problems.append(f"malnormality verdict {outcome['malnormal']}, "
                        f"expected {expected}")
    return problems


def check_search(request, outcome):
    """A heavy search's witness must be a homomorphism of the presentation
    that was searched (the pipeline output), nontrivial on a generator."""
    if outcome["witness"] is None:
        return []
    return witness_problems(outcome["witness"], outcome["degree"],
                            outcome["relators"])


def parse_report(text):
    fields = []
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields.append((key, value))
    return fields


def check_cli(request, outcome):
    fields = parse_report(outcome["stdout"])
    report = dict(fields)
    status = report.get("status")
    expected_code = {"certified": 0, "witness": 0, "inconclusive": 2}.get(status)
    if expected_code is None or outcome["code"] != expected_code:
        return [f"status {status!r} with exit code {outcome['code']}"]
    names, relators = request["names"], request["relators"]
    command = request["argv"][0]
    if command == "abel":
        betti, torsion = abelian_invariants(relators, names)
        got = (report.get("betti"), report.get("torsion"))
        want = (str(betti), " ".join(map(str, torsion)) or "none")
        return [] if got == want else [f"abel gave {got}, expected {want}"]
    if command == "freepow":
        n = request["n"]
        gens_lines = [line for line in outcome["stdout"].splitlines()
                      if line.startswith("gens:")]
        if len(gens_lines) != 1 or len(gens_lines[0].split()) - 1 != n * len(names) \
                or report.get("relators") != str(n * len(relators)):
            return ["free power has the wrong size"]
        return []
    if status == "inconclusive":
        return []
    degree = int(report["witness degree"])
    images = {key[len("witness "):]: parse_cycles(value, degree)
              for key, value in fields
              if key.startswith("witness ") and key != "witness degree"}
    if set(images) != set(names):
        return ["witness does not assign every generator"]
    orders = None
    if request.get("orders"):
        kappa, exponents = request["orders"]
        orders = (kappa, exponents, [((g, 1),) for g in names])
    return witness_problems(images, degree, relators,
                            word=request.get("word"), orders=orders)


def check_complex(request, outcome):
    """The scaled-copy complex of <n gens | m relators> over the one-square
    torus with gamma = a^k has closed-form cell counts, Euler characteristic
    (1 - n) + m * chi(torus) = 1 - n, and H_1 = Z^(n+2m) modulo the rows
    [exponent sums of r_j | -k on copy j's a-coordinate]."""
    problems = []
    names, relators, k = request["names"], request["relators"], request["k"]
    n, m = len(names), len(relators)
    lengths = [len(r) for r in relators]
    want_cells = (1 + n * (k - 1) + sum(l * l for l in lengths),
                  n * k + sum(2 * l * l + k * l for l in lengths),
                  sum(l * l + k * l for l in lengths))
    if outcome["cells"] != want_cells:
        problems.append(f"cells {outcome['cells']}, expected {want_cells}")
    if outcome["euler"] != 1 - n:
        problems.append(f"euler characteristic {outcome['euler']}, expected {1 - n}")
    if not outcome["link_ok"]:
        problems.append("link condition reported violated")
    rows = []
    for j, r in enumerate(relators):
        row = exponent_sums(r, names) + [0] * (2 * m)
        row[n + 2 * j] = -k
        rows.append(row)
    factors = invariant_factors(rows)
    want_h1 = (n + 2 * m - len(factors), tuple(d for d in factors if d > 1))
    for label in ("h1_pi1", "h1_cellular"):
        if outcome[label] != want_h1:
            problems.append(f"{label} = {outcome[label]}, expected {want_h1}")
    if outcome["round_trip_cells"] != want_cells:
        problems.append("file round trip changed the cell counts")
    return problems


CHECKS = {"pipeline": check_pipeline, "family": check_family,
          "search": check_search, "cli": check_cli, "complex": check_complex}


def check(request, outcome):
    return CHECKS[request["check"]](request, outcome)
