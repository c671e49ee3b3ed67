"""Shared low-level utilities: math kernels, RNG plumbing, parallel
execution, and plain-text table rendering.

These modules are internal plumbing for the rest of :mod:`repro`; they carry
no crowdsourcing semantics of their own.
"""
