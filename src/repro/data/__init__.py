"""Data substrate: answer matrices, crowd datasets, persistence, statistics.

This package implements the problem-setting objects of paper §2.2: the
``I × U`` answer matrix ``M`` whose entries are label *sets* (possibly
empty), the ground-truth assignment, and the dataset container tying them to
label/worker metadata.  It also provides the dataset statistics of Table 3
and the batch streams consumed by online (SVI) inference.
"""
