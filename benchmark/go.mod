module shufflejoin/benchmark

go 1.22

require shufflejoin v0.0.0

replace shufflejoin => ../
