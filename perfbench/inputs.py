"""
Seeded inputs for the benchmark, and the benchmark's own output checks.

Nothing here imports permbij, so inputs and checks stay independent of the
code under test.  A uniform 321-avoider of size n is drawn in three steps:

1. a uniform Dyck word of length 2n, by the cycle lemma: shuffle n up-steps
   and n + 1 down-steps, rotate the word to start just after the first
   lowest point of its walk, and drop the final down-step.  Each Dyck word
   comes from exactly 2n + 1 of the shuffles;
2. the word read as two standard two-row tableaux of one shape: the first
   half gives the insertion tableau (value i in the first row iff step i
   rises), the second half, reversed with its steps swapped, the recording
   tableau;
3. inverse two-row insertion on that pair, which by the RSK bijection
   yields every 321-avoider exactly once.

Run ``python3 perfbench/inputs.py`` to draw S_4(321) 14,000 times and print
how often each of its 14 members came up.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter


def uniform_dyck(n: int, rng: random.Random) -> str:
    steps = ["u"] * n + ["d"] * (n + 1)
    rng.shuffle(steps)
    height, low, low_at = 0, 0, 0
    for i, step in enumerate(steps, start=1):
        height += 1 if step == "u" else -1
        if height < low:
            low, low_at = height, i
    rotated = steps[low_at:] + steps[:low_at]
    return "".join(rotated[:-1])


def tableaux_from_dyck(word: str) -> tuple[tuple[list[int], list[int]], tuple[list[int], list[int]]]:
    n = len(word) // 2
    second = word[n:][::-1].translate(str.maketrans("ud", "du"))

    def rows(half: str) -> tuple[list[int], list[int]]:
        top = [i for i, s in enumerate(half, start=1) if s == "u"]
        bottom = [i for i, s in enumerate(half, start=1) if s == "d"]
        return top, bottom

    return rows(word[:n]), rows(second)


def inverse_two_row_insertion(ins, rec) -> tuple[int, ...]:
    p1, p2 = list(ins[0]), list(ins[1])
    q2 = set(rec[1])
    n = len(p1) + len(p2)
    word = [0] * n
    for step in range(n, 0, -1):
        if step in q2:
            x = p2.pop()
            # the largest first-row entry below x was the one it bumped
            j = bisect_left(p1, x) - 1
            word[step - 1] = p1[j]
            p1[j] = x
        else:
            word[step - 1] = p1.pop()
    return tuple(word)


def uniform_321_avoider(n: int, rng: random.Random) -> tuple[int, ...]:
    """A uniformly random member of S_n(321), checked before it is returned."""
    sigma = inverse_two_row_insertion(*tableaux_from_dyck(uniform_dyck(n, rng)))
    if not (is_permutation(sigma) and avoids_321(sigma)):
        raise RuntimeError(f"generator produced an invalid input of size {n}")
    return sigma


def is_permutation(word) -> bool:
    n = len(word)
    return n >= 1 and sorted(word) == list(range(1, n + 1))


def avoids_321(word) -> bool:
    """Linear test: the entries below an earlier maximum must increase."""
    top = low = 0
    for v in word:
        if v > top:
            top = v
        elif v < low:
            return False
        else:
            low = v
    return True


def avoids_132(word) -> bool:
    """Linear stack test, scanning right to left for a middle-high 3 over a 2."""
    stack: list[int] = []
    two = 0
    for v in reversed(word):
        if v < two:
            return False
        while stack and stack[-1] < v:
            two = stack.pop()
        stack.append(v)
    return True


def irc(word) -> tuple[int, ...]:
    """Inverse of the reverse-complement."""
    n = len(word)
    inv = [0] * n
    for pos, v in enumerate(reversed(word), start=1):
        inv[n - v] = pos
    return tuple(inv)


def main() -> None:
    rng = random.Random(0)
    counts = Counter(uniform_321_avoider(4, rng) for _ in range(14_000))
    for sigma, count in sorted(counts.items()):
        print("".join(map(str, sigma)), count)
    print(f"{len(counts)} distinct, min {min(counts.values())}, max {max(counts.values())}")


if __name__ == "__main__":
    main()
