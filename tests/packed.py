"""The packed per-diagonal layout as the tests read it, from its rule alone.

Diagonal x of a d x d matrix, the d - x entries rho[j + x, j], is acted on
by a (d - x) x (d - x) block.  A packed stack has d // 2 + 1 matrices of
size d x d; the block of diagonal x is the square of matrix x from position
0 if x <= d // 2, and of matrix d - x from position x otherwise.
"""

import numpy as np


def place(d, x):
    """(matrix, position) of diagonal x's block in a packed stack of dimension d."""
    return (x, 0) if x <= d // 2 else (d - x, x)


def diagonal_block(stack, x):
    """The block of diagonal x in a packed stack, a view."""
    d = stack.shape[-1]
    b, o = place(d, x)
    return stack[b, o:o + d - x, o:o + d - x]


def squares(d):
    """Boolean (d // 2 + 1, d, d) array, True inside the square of some diagonal."""
    inside = np.zeros((d // 2 + 1, d, d), dtype=bool)
    for x in range(d):
        diagonal_block(inside, x)[...] = True
    return inside
