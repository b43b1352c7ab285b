module naiad/benchmark

go 1.24

require naiad v0.0.0

replace naiad => ../
