# Empty on purpose: the benchmark tracer (bench/tracer.py) imports this module by name.
