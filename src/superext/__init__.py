"""Superextension structure of finite groups.

Import from the submodules; the package root re-exports nothing:
``groups`` (group constructors, subgroups, Cayley documents, the spec
grammar), ``setfam`` (maximal linked systems, their product, Phi),
``twin`` (twin sets, 2-cogroups), ``semigroups`` (finite-semigroup
analysis), ``engine`` (the structural and brute routes, the
cross-check) and ``cli`` (the command-line front end).
"""
