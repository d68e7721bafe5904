"""Inputs shared by several test modules."""

from itertools import product

from splitoct import group as gp
from splitoct import octonion as oc
from splitoct import words as wd
from splitoct.scalars import GF


def rand_oct(field, rng):
    return oc.from_coords(field, [field(rng.randrange(field.p))
                                  for _ in range(8)])


def labeled_words(max_degree, n):
    """Every tree shape up to max_degree with every letter assignment."""
    out = []
    for d in range(1, max_degree + 1):
        for shape in wd.all_shapes(d):
            for labels in product(range(1, n + 1), repeat=d):
                it = iter(labels)

                def fill(s):
                    if s is None:
                        return next(it)
                    return (fill(s[0]), fill(s[1]))

                out.append(fill(shape))
    return out


def gf2_element(mat):
    """One matrix of enumerate_group_array(2) as an exact GroupElement."""
    field = GF(2)
    return gp.GroupElement(field, [[field(int(x)) for x in row] for row in mat])
