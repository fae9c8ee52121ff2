"""Brute-force oracles the tests hold the library against.

Everything here recomputes results from first principles (literal triple
scans, polygon membership, recursive generation) so that a library bug
cannot hide behind shared code.
"""
import itertools


def all_words(n):
    """Every word of S_n, lexicographic."""
    return itertools.permutations(range(1, n + 1))


def avoiders_by_filter(n, pattern):
    """S_n(pattern) in lexicographic order, by filtering all n! words."""
    return [w for w in all_words(n) if not contains_by_triples(w, pattern)]


def contains_by_triples(word, pattern):
    """Literal scan of all position triples."""
    for i, j, k in itertools.combinations(range(len(word)), 3):
        a, b, c = word[i], word[j], word[k]
        if pattern == "321" and a > b > c:
            return True
        if pattern == "132" and b > c > a:
            return True
    return False


def smallest_132_by_triples(word):
    """Minimum over every 132 triple, computed without early exit."""
    hits = [
        (i + 1, j + 1, k + 1)
        for i, j, k in itertools.combinations(range(len(word)), 3)
        if word[j] > word[k] > word[i]
    ]
    return min(hits) if hits else None


def dyck_words(n):
    """All balanced up-down words of length 2n, by recursive extension."""

    def extend(word, ups, downs):
        if ups == downs == n:
            yield "".join(word)
            return
        if ups < n:
            word.append("u")
            yield from extend(word, ups + 1, downs)
            word.pop()
        if downs < ups:
            word.append("d")
            yield from extend(word, ups, downs + 1)
            word.pop()

    yield from extend([], 0, 0)


def left_of_path_by_polygon(word, n):
    """
    Squares left of the lattice path, decided by even-odd ray casting
    against the closed polygon path + top border + left border.  Grid
    coordinates: x right along columns, y up along rows, origin at the
    grid's lower-left corner.
    """
    points = [(0, 0)]
    x = y = 0
    for step in word:
        if step == "u":
            y += 1
        else:
            x += 1
        points.append((x, y))
    points.append((0, n))  # close along the top border, then down the left

    squares = set()
    for row in range(1, n + 1):
        for col in range(1, n + 1):
            px, py = col - 0.5, n - row + 0.5
            inside = False
            for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
                if (y1 > py) != (y2 > py):
                    x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                    if px < x_cross:
                        inside = not inside
            if inside:
                squares.add((row, col))
    return squares


def rcl_corners_by_smallest_rule(perm):
    """
    Corner pairs (value, position) grown from below: start from the
    smallest 2-value and the smallest 1-value, then repeat on 21-patterns
    whose members exceed the previous pair's two values.
    """
    n = len(perm)
    corners = []
    two_floor = one_floor = 0
    while True:
        pairs = [
            (x, y)
            for x in range(n)
            for y in range(x + 1, n)
            if perm[x] > perm[y] and perm[x] > two_floor and perm[y] > one_floor
        ]
        if not pairs:
            return corners
        two_val = min(perm[x] for x, _ in pairs)
        one_val = min(perm[y] for _, y in pairs)
        corners.append((two_val, perm.index(one_val) + 1))
        two_floor, one_floor = two_val, one_val
