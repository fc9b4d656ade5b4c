"""Pendant Steiner-tree packing certificates for augmented cubes.

Construct, for any three targets in the n-dimensional augmented cube,
a verified family of 2n - 3 internally disjoint trees in which every
target is a leaf; check such certificates independently; compute exact
packing numbers at small scale; probe disjoint-path structure.
"""
