main:
  mov rax, [rbx
  hlt
