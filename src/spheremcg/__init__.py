"""Verified computations in mapping class groups of punctured spheres."""
