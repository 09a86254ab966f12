"""Correlation matrices as rotation curves.

The package factors a symmetric positive definite correlation matrix into
contraction parameters, assembles the corresponding sequence of rotation
matrices, and treats that sequence as a curve on the rotation group so
that whole processes can be compared by elastic shape distance.  The
namespace re-exports nothing: import each stage from its module.
"""
