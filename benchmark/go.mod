module misketch/benchmark

go 1.24

require misketch v0.0.0

replace misketch => ../
