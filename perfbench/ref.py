"""Fixed reference task for the benchmark's machine-speed scale.

It imports numpy, parses a fixed source text with `ast`, multiplies small
matrices and runs a plain Python loop: the same kinds of work as the
pipeline. It reads nothing from the repository, so no change to cegraph
can change its running time; only the machine can. run.py runs it in a
fresh process before and after every timed process.
"""

import ast

import numpy as np

SOURCE = "\n".join(f"def f{i}(a, b):\n    return [x * a + b for x in range(a) if x % 3]\n" for i in range(300))

for _ in range(8):
    ast.parse(SOURCE)
m = np.arange(40000, dtype=float).reshape(200, 200) / 4e4
for _ in range(40):
    m = np.tanh(m @ m.T / 200.0)
total = 0
for i in range(200000):
    total += i % 7
