"""Fixed reference task that measures how fast the machine is right now.

The benchmark runs this script as a child process next to each `infoflow`
invocation. It does the same kinds of work as the CLI, without touching
`infoflow`: interpreter start and numpy import, a pure-Python loop, many
small numpy calls, and a batched solve over a few tens of MB. On a shared
machine whose speed drifts by tens of percent over minutes, the time of
this task drifts with it, so dividing by it removes most of that drift.

Its work must never change: the benchmark's scale depends on it.
"""

import numpy as np


def main() -> None:
    counts = {}
    for i in range(250_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    rng = np.random.default_rng(0)
    alpha = np.arange(1.0, 6.0)
    total = 0.0
    for _ in range(10_000):
        g = rng.standard_gamma(alpha)
        total += float((g / g.sum()).max())
    a = rng.random((200, 80, 80)) + 80.0 * np.eye(80)
    b = np.linalg.solve(a, rng.random((200, 80, 3)))
    if not np.isfinite(b).all() or total <= 0.0:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
