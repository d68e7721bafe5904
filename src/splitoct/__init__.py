"""Exact arithmetic for the split octonions, their automorphism group,
and the separating and generating invariant families of several
octonions, with a trace-word normalizer, symbolic identity checks, and
a finite-field brute-force oracle.
"""
