module suss/bench

go 1.22

require suss v0.0.0

replace suss => ../
