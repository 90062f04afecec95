module gcx/benchmark

go 1.24

require gcx v0.0.0

replace gcx => ../
