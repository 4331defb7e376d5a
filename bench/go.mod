module fastflex/bench

go 1.22

require fastflex v0.0.0

replace fastflex => ../
