"""Numerical workbench for relativistic position and spin operator algebra.

Natural units (hbar = c = 1) throughout.
"""
