"""Spectral barycentres of graph ensembles with community structure.

The package estimates a representative graph for a collection of graphs
that share a block layout: average the normalized-Laplacian spectra, fit a
structured eigenbasis to the mean adjacency matrix, and reassemble an
adjacency-scale barycentre from the truncated spectrum and block degrees.

The package exports its modules only: ``from specbary import barycentre``.
"""
